package core

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/simtest"
)

// drainedCore runs the data-dependent sum-below workload for a partial
// budget and drains the pipeline, leaving the core in the state a warmup
// fork copies at the barrier.
func drainedCore(t *testing.T) *Core {
	t.Helper()
	p, _, _ := sumBelowProgram(4096, 42)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if _, err := c.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if c.haltRetired {
		t.Fatal("budget must stop the core mid-program, not at the halt")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoreRoundTrip(t *testing.T) {
	c := drainedCore(t)
	if len(c.Branches) == 0 {
		t.Fatal("driven core recorded no per-branch statistics")
	}

	p, _, _ := sumBelowProgram(4096, 42)
	fresh := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	fresh.CopyFrom(c)

	simtest.RequireDeepEqual(t, "clock", c.now, fresh.now)
	simtest.RequireDeepEqual(t, "sequence", c.seq, fresh.seq)
	simtest.RequireDeepEqual(t, "fetch stall", c.fetchStallUntil, fresh.fetchStallUntil)
	simtest.RequireDeepEqual(t, "fetch line", [2]uint64{c.lineReadyAt, c.curFetchLine},
		[2]uint64{fresh.lineReadyAt, fresh.curFetchLine})
	simtest.RequireDeepEqual(t, "halt flag", c.haltRetired, fresh.haltRetired)
	simtest.RequireDeepEqual(t, "front-end registers", c.fe.regs, fresh.fe.regs)
	simtest.RequireDeepEqual(t, "front-end PC", c.fe.pc, fresh.fe.pc)
	simtest.RequireDeepEqual(t, "front-end flags", [2]bool{c.fe.invalid, c.fe.halted},
		[2]bool{fresh.fe.invalid, fresh.fe.halted})
	simtest.RequireDeepEqual(t, "branch stats", c.Branches, fresh.Branches)
	simtest.RequireDeepEqual(t, "counters", c.C.Snapshot(), fresh.C.Snapshot())

	// The copy's pipeline must be empty, exactly like the drained source.
	if len(fresh.rob) != 0 || len(fresh.fetchQ) != 0 || fresh.rsCount != 0 || fresh.lsqCount != 0 {
		t.Fatal("copy left pipeline structures populated")
	}

	// Branch statistics are updated in place, so the copy must own them.
	for pc, bs := range fresh.Branches {
		if bs == c.Branches[pc] {
			t.Fatalf("branch %#x: copy shares its BranchStat with the source", pc)
		}
	}
}

// TestCopyFromRejectsLivePipeline pins the drain precondition: copying an
// in-flight pipeline would silently drop speculative state. A live slot in
// the micro-op ring alone is enough to refuse.
func TestCopyFromRejectsLivePipeline(t *testing.T) {
	p, _, _ := sumBelowProgram(256, 7)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if _, err := c.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(c.rob) == 0 && len(c.fetchQ) == 0 && c.rsCount == 0 {
		t.Fatal("short run left no in-flight micro-ops; the precondition is untested")
	}
	mustRefuseCopy(t, "live pipeline", c)

	ringOnly := drainedCore(t)
	ringOnly.uops.alloc().IsCondBr = true
	mustRefuseCopy(t, "live micro-op ring", ringOnly)
}

func mustRefuseCopy(t *testing.T, what string, src *Core) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("CopyFrom of a %s must panic", what)
		}
	}()
	p, _, _ := sumBelowProgram(256, 7)
	fresh := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	fresh.CopyFrom(src)
}
