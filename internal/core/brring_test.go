package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/program"
)

// branchDenseProgram builds a loop that is almost all conditional branches:
// one load and compare per iteration, then a run of branches on the
// compare's flags (data-dependent, so some mispredict and recover), each
// landing on the next instruction whichever way it goes. A last branch
// guards an increment; the program stores the increment count to
// resultAddr and halts.
func branchDenseProgram(n int, seed int64) (*program.Program, uint64, uint64) {
	const (
		base       = uint64(0x10000)
		resultAddr = uint64(0x80000)
		run        = 8
	)
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, n)
	var want uint64
	for i := range vals {
		vals[i] = uint32(r.Intn(1000))
		if vals[i] >= 500 {
			want++
		}
	}
	b := program.NewBuilder("branch-dense")
	b.DataU32(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R3, 0).
		MovI(isa.R4, 0).
		MovI(isa.R5, int64(n)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		CmpI(isa.R2, 500)
	for k := 0; k < run; k++ {
		next := fmt.Sprintf("next%d", k)
		b.Br(isa.CondLT, next).Label(next)
	}
	b.Br(isa.CondLT, "skip").
		AddI(isa.R4, isa.R4, 1).
		Label("skip").
		AddI(isa.R3, isa.R3, 1).
		Cmp(isa.R3, isa.R5).
		Br(isa.CondLT, "loop").
		St(isa.R4, isa.R0, int64(resultAddr), 8).
		Halt()
	return b.MustBuild(), resultAddr, want
}

// TestBranchRingBoundOnTinyMachine runs a branch-dense loop to halt on a
// machine with an 8-entry ROB and a 4-entry fetch queue, with no extension
// and with an extension that overrides every prediction. The micro-op ring
// that holds the branch checkpoints is sized ROBSize+FetchQSize and panics
// on overflow, so halting proves the bound holds; the peak number of
// in-flight branches must exceed what the ROB alone could hold, so the
// fetch-queue term of the bound is exercised. The drain afterwards proves
// retire and recovery freed every slot.
func TestBranchRingBoundOnTinyMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	cfg.FetchQSize = 4
	for _, tc := range []struct {
		name string
		ext  Extension
	}{
		{"baseline", nil},
		{"oracle", oracleExt{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, resultAddr, want := branchDenseProgram(2000, 5)
			c := New(cfg, p, bpred.NewTAGESCL64(), testHierarchy(), tc.ext)
			peak := 0
			for !c.Halted() {
				if c.now > 10_000_000 {
					t.Fatal("program did not halt")
				}
				c.Cycle()
				peak = max(peak, inFlightBranches(c))
			}
			if got := c.Memory().Read(resultAddr, 8); got != want {
				t.Fatalf("computed %d, want %d", got, want)
			}
			t.Logf("peak in-flight branches %d of %d slots", peak, len(c.uops.buf))
			if peak <= cfg.ROBSize {
				t.Fatalf("peak in-flight branches %d never exceeded ROBSize %d", peak, cfg.ROBSize)
			}
			if tc.ext == nil && c.C.Get("recoveries") == 0 {
				t.Fatal("no recoveries: the truncation path is untested")
			}
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// inFlightBranches counts the conditional branches in c's micro-op ring,
// each of which holds a checkpoint entry.
func inFlightBranches(c *Core) int {
	n := 0
	for i := 0; i < c.uops.n; i++ {
		if c.uops.at(i).IsCondBr {
			n++
		}
	}
	return n
}

// TestDrainReportsLiveBranchRing pins that a branch left in the ring by a
// retire or squash path that forgot to free its slot is drain residue.
func TestDrainReportsLiveBranchRing(t *testing.T) {
	c := drainedCore(t)
	c.uops.alloc().IsCondBr = true
	err := c.Drain()
	if err == nil || !strings.Contains(err.Error(), "uops=1") {
		t.Fatalf("Drain with a live ring slot returned %v, want ring residue", err)
	}
}
