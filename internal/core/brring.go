package core

import "repro/internal/bpred"

// brEntry is what recovery and retire need of one in-flight conditional
// branch: the front-end checkpoint and predictor history to restore if it
// mispredicts, and the prediction info the predictor trains on at retire.
// A branch's entry is uopRing.br[d.Slot], written at fetch.
type brEntry struct {
	fe   feCheckpoint
	snap bpred.Snapshot
	info bpred.Info
}

// releaseBranch hands the snapshot and info of branch d's entry back to the
// predictor, whose free lists recycle them. Retire releases each branch as it
// leaves the ring's head and a recovery releases the squashed ones oldest
// first, so the free lists see the releases in program order.
func (c *Core) releaseBranch(d *DynUop) {
	e := &c.uops.br[d.Slot]
	c.bp.Release(e.snap)
	c.bp.ReleaseInfo(e.info)
}

// squashBranchesAfter releases the entries of every branch younger than d,
// oldest first. It runs before the recovery frees their slots.
func (c *Core) squashBranchesAfter(d *DynUop) {
	r := &c.uops
	for i := r.age(d) + 1; i < r.n; i++ {
		if e := r.at(i); e.IsCondBr {
			c.releaseBranch(e)
		}
	}
}
