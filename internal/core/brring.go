package core

import "repro/internal/bpred"

// brEntry is what recovery and retire need of one in-flight conditional
// branch: the front-end checkpoint and predictor history to restore if it
// mispredicts, and the prediction info the predictor trains on at retire.
type brEntry struct {
	fe   feCheckpoint
	snap bpred.Snapshot
	info bpred.Info
}

// brRing holds the entries of the in-flight conditional branches in
// program order: fetch pushes at the tail, retire pops the head and a
// recovery cuts off everything younger than its branch. Every in-flight
// branch sits in the fetch queue or the ROB, so ROBSize+FetchQSize entries
// always suffice. A branch's DynUop.BrID is the index of its entry.
type brRing struct {
	buf  []brEntry
	head int // index of the oldest entry
	n    int // live entries
}

// push appends e for the youngest branch and returns its id.
func (r *brRing) push(e brEntry) uint32 {
	if r.n == len(r.buf) {
		panic("core: in-flight branch ring overflow")
	}
	id := (r.head + r.n) % len(r.buf)
	r.buf[id] = e
	r.n++
	return uint32(id)
}

// releaseBranch hands e's snapshot and info back to the predictor, whose
// free lists recycle them.
func (c *Core) releaseBranch(e *brEntry) {
	c.bp.Release(e.snap)
	c.bp.ReleaseInfo(e.info)
}

// popBranch releases the oldest branch's entry once d, which owns it, has
// retired.
func (c *Core) popBranch(d *DynUop) {
	r := &c.br
	if r.n == 0 || int(d.BrID) != r.head {
		panic("core: branch ring out of sync at retire")
	}
	c.releaseBranch(&r.buf[r.head])
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// squashBranchesAfter releases the entries of every branch younger than d,
// oldest first, so the predictor's free lists see the releases in program
// order.
func (c *Core) squashBranchesAfter(d *DynUop) {
	r := &c.br
	keep := (int(d.BrID)-r.head+len(r.buf))%len(r.buf) + 1
	for i := keep; i < r.n; i++ {
		c.releaseBranch(&r.buf[(r.head+i)%len(r.buf)])
	}
	r.n = keep
}
