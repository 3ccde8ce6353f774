package core

import (
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
)

// forwardingProgram builds a loop that is heavy on stores, loads and hard
// branches. Each iteration loads a random value, stores it into one of
// eight scratch words chosen by its low bits, loads that word straight back
// (always forwarded from the store just before it) and loads another word
// chosen by the loop index (forwarded whenever an in-flight store wrote
// it). A data-dependent branch then guards an accumulate and a store of the
// running sum. It returns the program and the scratch region's bounds.
func forwardingProgram(n int, seed int64) (*program.Program, uint64, uint64) {
	const (
		base    = uint64(0x10000)
		scratch = uint64(0x80000)
	)
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.Intn(1000))
	}
	b := program.NewBuilder("forwarding")
	b.DataU32(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R9, int64(scratch)).
		MovI(isa.R3, 0).
		MovI(isa.R4, 0).
		MovI(isa.R5, int64(n)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		AndI(isa.R6, isa.R2, 7).
		StIdx(isa.R2, isa.R9, isa.R6, 8, 0, 8).
		LdIdx(isa.R7, isa.R9, isa.R6, 8, 0, 8, false).
		AndI(isa.R8, isa.R3, 7).
		LdIdx(isa.R10, isa.R9, isa.R8, 8, 0, 8, false).
		CmpI(isa.R7, 500).
		Br(isa.CondGE, "skip"). // data-dependent: mispredicts often
		Add(isa.R4, isa.R4, isa.R10).
		St(isa.R4, isa.R9, 64, 8).
		Label("skip").
		AddI(isa.R3, isa.R3, 1).
		Cmp(isa.R3, isa.R5).
		Br(isa.CondLT, "loop").
		St(isa.R4, isa.R9, 72, 8).
		Halt()
	return b.MustBuild(), scratch, scratch + 80
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	cfg.FetchQSize = 4
	cfg.RSSize = 4
	cfg.LSQSize = 4
	return cfg
}

// checkScheduler asserts the event-driven scheduler's invariants over every
// in-flight micro-op.
func checkScheduler(t *testing.T, c *Core) {
	t.Helper()
	ready := make(map[*DynUop]bool, len(c.ready))
	for i, d := range c.ready {
		if d.State != StInRS {
			t.Fatalf("cycle %d: ready list holds seq %d in state %d", c.now, d.Seq, d.State)
		}
		if i > 0 && c.ready[i-1].Seq >= d.Seq {
			t.Fatalf("cycle %d: ready list not strictly ascending: seq %d then %d", c.now, c.ready[i-1].Seq, d.Seq)
		}
		ready[d] = true
	}
	queued := make(map[*DynUop]bool, len(c.doneQ))
	for i, e := range c.doneQ {
		if i > 0 && e.less(c.doneQ[(i-1)/2]) {
			t.Fatalf("cycle %d: completion queue violates heap order at %d", c.now, i)
		}
		if e.seq != e.d.Seq || e.at != e.d.DoneAt {
			t.Fatalf("cycle %d: completion entry (%d, seq %d) is stale: slot holds seq %d done at %d",
				c.now, e.at, e.seq, e.d.Seq, e.d.DoneAt)
		}
		queued[e.d] = true
	}
	// Count the wakeup edges into each consumer.
	edges := make(map[*DynUop]int)
	inRS, issued := 0, 0
	for i := 0; i < c.uops.n; i++ {
		p := c.uops.at(i)
		if p.waiters != 0 && !p.resultPending() {
			t.Fatalf("cycle %d: seq %d in state %d still has waiters", c.now, p.Seq, p.State)
		}
		prev := ^uint64(0)
		for e := p.waiters; e != 0; {
			w, k := c.uops.consumer(e)
			if w.State != StInRS || w.Seq <= p.Seq || w.Seq >= prev {
				t.Fatalf("cycle %d: producer seq %d has a bad edge to seq %d (state %d)", c.now, p.Seq, w.Seq, w.State)
			}
			prev = w.Seq
			edges[w]++
			e = w.waitNext[k]
		}
	}
	for i := 0; i < c.uops.n; i++ {
		d := c.uops.at(i)
		switch d.State {
		case StInRS:
			inRS++
			if int(d.pending) != edges[d] {
				t.Fatalf("cycle %d: seq %d counts %d pending sources but has %d edges", c.now, d.Seq, d.pending, edges[d])
			}
			if (d.pending == 0) != ready[d] {
				t.Fatalf("cycle %d: seq %d with %d pending sources: in ready list = %v", c.now, d.Seq, d.pending, ready[d])
			}
		case StIssued:
			issued++
			if !queued[d] {
				t.Fatalf("cycle %d: issued seq %d is not in the completion queue", c.now, d.Seq)
			}
			if d.DoneAt < c.now {
				t.Fatalf("cycle %d: issued seq %d was due at %d", c.now, d.Seq, d.DoneAt)
			}
		}
	}
	if inRS != c.rsCount || issued != len(c.doneQ) {
		t.Fatalf("cycle %d: %d waiting and %d issued micro-ops, but rsCount %d and %d queued",
			c.now, inRS, issued, c.rsCount, len(c.doneQ))
	}
}

// TestSchedulerInvariants steps a tiny and a default-sized machine cycle by
// cycle to halt and checks the scheduler's invariants after every cycle,
// with the baseline predictor and with an extension that overrides every
// prediction.
func TestSchedulerInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ext  Extension
	}{
		{"tiny", tinyConfig(), nil},
		{"tiny-oracle", tinyConfig(), oracleExt{}},
		{"default", DefaultConfig(), nil},
		{"default-oracle", DefaultConfig(), oracleExt{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, _ := forwardingProgram(600, 3)
			c := New(tc.cfg, p, bpred.NewTAGESCL64(), testHierarchy(), tc.ext)
			for !c.Halted() {
				if c.now > 10_000_000 {
					t.Fatal("program did not halt")
				}
				c.Cycle()
				checkScheduler(t, c)
			}
			if c.C.Get("store_forwards") == 0 {
				t.Fatal("no store-to-load forwarding: the store wakeup edge is untested")
			}
			if tc.ext == nil && c.C.Get("recoveries") == 0 {
				t.Fatal("no recoveries: the pruning paths are untested")
			}
		})
	}
}

// TestRecycledSlotsMatchFunctionalRun runs the forwarding loop to halt on a
// machine whose micro-op ring has 12 slots, so every slot is reused
// thousands of times, many of them after a squash. A lockstep functional
// run checks each retired micro-op's PC and fetch-time results, and at the
// halt the front-end registers and the committed scratch memory must equal
// the functional run's: a slot that leaked state into its next occupant
// would show up as a mismatch.
func TestRecycledSlotsMatchFunctionalRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	cfg.FetchQSize = 4
	p, lo, hi := forwardingProgram(3000, 9)
	ref := emu.NewRunner(p)
	c := New(cfg, p, bpred.NewBimodal(12), testHierarchy(), nil)
	var mismatch string
	c.SetTracer(TracerFunc(func(cycle uint64, stage string, d *DynUop) {
		if stage != "retire" || mismatch != "" {
			return
		}
		pc := ref.State.PC
		want, err := ref.StepOne()
		switch {
		case err != nil:
			mismatch = err.Error()
		case d.U.PC != pc || d.Res != want:
			mismatch = "retired micro-op differs from the functional step"
		}
		if mismatch != "" {
			t.Errorf("cycle %d: seq %d at pc %d: %s\ncore: %+v\nemu:  pc %d %+v", cycle, d.Seq, d.U.PC, mismatch, d.Res, pc, want)
		}
	}))
	runToHalt(t, c)
	if mismatch != "" {
		t.FailNow()
	}
	if ref.State.Regs != c.fe.regs {
		t.Fatalf("registers at halt:\ncore %v\nemu  %v", c.fe.regs, ref.State.Regs)
	}
	for a := lo; a < hi; a += 8 {
		if got, want := c.Memory().Read(a, 8), ref.Mem.Read(a, 8); got != want {
			t.Fatalf("committed memory at %#x: core %d, functional %d", a, got, want)
		}
	}
	if got, want := c.C.Get("retired"), ref.Steps; got != want {
		t.Fatalf("retired %d micro-ops, functional run stepped %d", got, want)
	}
	if c.C.Get("store_forwards") == 0 || c.C.Get("recoveries") == 0 {
		t.Fatalf("loop exercised %d forwards and %d recoveries; want both",
			c.C.Get("store_forwards"), c.C.Get("recoveries"))
	}
	if wraps := c.C.Get("fetched") / uint64(len(c.uops.buf)); wraps < 1000 {
		t.Fatalf("ring wrapped only %d times", wraps)
	}
}
