package core

import (
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
)

// nestedBranchProgram exercises recovery-under-recovery: two data-dependent
// branches back to back, the second in the shadow of the first, both over
// random data, plus stores on the taken paths so wrong-path store squashing
// is exercised too.
func nestedBranchProgram(n int, seed int64) (*program.Program, uint64, uint64) {
	const (
		base    = uint64(0x20000)
		scratch = uint64(0x90000)
	)
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.Intn(1024))
	}
	b := program.NewBuilder("nested")
	b.DataU32(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R3, 0).
		MovI(isa.R4, 0).
		MovI(isa.R5, 0).
		MovI(isa.R6, int64(n-1)).
		MovI(isa.R9, int64(scratch)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		CmpI(isa.R2, 512).
		Br(isa.CondGE, "second"). // hard branch 1
		AddI(isa.R4, isa.R4, 1).
		St(isa.R4, isa.R9, 0, 8). // store in branch 1's shadow
		Label("second").
		TestI(isa.R2, 1).
		Br(isa.CondNE, "odd"). // hard branch 2 (in the shadow of 1)
		AddI(isa.R5, isa.R5, 3).
		St(isa.R5, isa.R9, 8, 8).
		Label("odd").
		AddI(isa.R3, isa.R3, 1).
		Cmp(isa.R3, isa.R6).
		Br(isa.CondLT, "loop").
		Halt()
	p := b.MustBuild()
	return p, scratch, scratch + 8
}

func TestNestedRecoveryArchitecturalState(t *testing.T) {
	p, a1, a2 := nestedBranchProgram(3000, 31)
	ref := emu.NewRunner(p)
	if _, halted, err := ref.Run(10_000_000); err != nil || !halted {
		t.Fatalf("functional: halted=%v err=%v", halted, err)
	}
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	for _, addr := range []uint64{a1, a2} {
		if got, want := c.Memory().Read(addr, 8), ref.Mem.Read(addr, 8); got != want {
			t.Fatalf("memory at %#x: core %d, functional %d", addr, got, want)
		}
	}
	if got, want := c.C.Get("retired"), ref.Steps; got != want {
		t.Fatalf("retired %d, functional %d", got, want)
	}
	if c.C.Get("recoveries") == 0 {
		t.Fatal("program was supposed to mispredict")
	}
}

// TestRecoveryRestoresPredictorDeterminism: two identical cores must stay
// in lock step (same cycle count) — checkpoint/restore of predictor history
// is part of the deterministic state.
func TestRecoveryRestoresPredictorDeterminism(t *testing.T) {
	mk := func() *Core {
		p, _, _ := nestedBranchProgram(2000, 7)
		return New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	}
	a, b := mk(), mk()
	runToHalt(t, a)
	runToHalt(t, b)
	if a.C.Get("cycles") != b.C.Get("cycles") || a.C.Get("mispredicts") != b.C.Get("mispredicts") {
		t.Fatalf("nondeterminism: cycles %d vs %d, mispredicts %d vs %d",
			a.C.Get("cycles"), b.C.Get("cycles"), a.C.Get("mispredicts"), b.C.Get("mispredicts"))
	}
}

// TestROBNeverExceedsCapacity runs with a tiny ROB and watches occupancy.
func TestROBNeverExceedsCapacity(t *testing.T) {
	p, _, _ := nestedBranchProgram(1500, 3)
	cfg := DefaultConfig()
	cfg.ROBSize = 32
	cfg.RSSize = 16
	cfg.LSQSize = 12
	c := New(cfg, p, bpred.NewBimodal(12), testHierarchy(), nil)
	for !c.haltRetired {
		c.Cycle()
		if len(c.rob) > cfg.ROBSize {
			t.Fatalf("ROB occupancy %d > %d", len(c.rob), cfg.ROBSize)
		}
		if c.rsCount > cfg.RSSize {
			t.Fatalf("RS occupancy %d > %d", c.rsCount, cfg.RSSize)
		}
		if c.lsqCount > cfg.LSQSize || c.lsqCount < 0 {
			t.Fatalf("LSQ occupancy %d outside [0,%d]", c.lsqCount, cfg.LSQSize)
		}
		if c.now > 10_000_000 {
			t.Fatal("runaway")
		}
	}
}

// TestStoreToLoadForwarding: a load immediately after an overlapping store
// must forward (counted), and the value must be correct.
func TestStoreToLoadForwarding(t *testing.T) {
	b := program.NewBuilder("fwd")
	b.MovI(isa.R1, 0x5000).
		MovI(isa.R2, 1234).
		MovI(isa.R3, 0)
	b.Label("loop").
		AddI(isa.R2, isa.R2, 1).
		St(isa.R2, isa.R1, 0, 8).
		Ld(isa.R4, isa.R1, 0, 8, false). // forwarded from the store
		Add(isa.R5, isa.R5, isa.R4).
		AddI(isa.R3, isa.R3, 1).
		CmpI(isa.R3, 200).
		Br(isa.CondLT, "loop").
		St(isa.R5, isa.R1, 16, 8).
		Halt()
	p := b.MustBuild()

	ref := emu.NewRunner(p)
	ref.Run(1_000_000)
	c := New(DefaultConfig(), p, bpred.NewBimodal(12), testHierarchy(), nil)
	runToHalt(t, c)
	if c.C.Get("store_forwards") == 0 {
		t.Fatal("no store-to-load forwarding recorded")
	}
	if got, want := c.Memory().Read(0x5010, 8), ref.Mem.Read(0x5010, 8); got != want {
		t.Fatalf("forwarded sum %d, functional %d", got, want)
	}
}

// TestWrongPathStoresNeverCommit: stores fetched on the wrong path must
// never reach committed memory. The window beyond the loop exit writes a
// sentinel that only wrong-path execution would reach.
func TestWrongPathStoresNeverCommit(t *testing.T) {
	b := program.NewBuilder("wp")
	const sentinel = uint64(0x7000)
	r := rand.New(rand.NewSource(5))
	vals := make([]uint32, 512)
	for i := range vals {
		vals[i] = uint32(r.Intn(100))
	}
	b.DataU32(0x30000, vals)
	b.MovI(isa.R1, 0x30000).
		MovI(isa.R3, 0).
		MovI(isa.R9, int64(sentinel)).
		MovI(isa.R8, 0xDEAD).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		CmpI(isa.R2, 50).
		Br(isa.CondLT, "skip"). // hard branch; wrong path may reach the store below
		Jmp("next").
		Label("skip").
		Nop().
		Label("next").
		AddI(isa.R3, isa.R3, 1).
		CmpI(isa.R3, 512).
		Br(isa.CondLT, "loop").
		Halt().
		// Post-halt code is only reachable by wrong-path fetch runs.
		St(isa.R8, isa.R9, 0, 8).
		Jmp("loop")
	p := b.MustBuild()
	c := New(DefaultConfig(), p, bpred.NewBimodal(12), testHierarchy(), nil)
	runToHalt(t, c)
	if got := c.Memory().Read(sentinel, 8); got != 0 {
		t.Fatalf("wrong-path store leaked into committed memory: %#x", got)
	}
}
