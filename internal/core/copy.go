package core

import "repro/internal/isa"

// CopyFrom forks a drained core (see Drain) into a freshly-constructed one
// with the same config, program and wiring: the clock, sequence numbers,
// fetch-steering state, the front-end's architectural registers and PC, the
// instruction source's stream position, the per-branch statistics and the
// counters. Pipeline structures stay empty, matching the drained source. The
// committed memory image, the branch predictor and the cache hierarchy are
// components of their own, copied by the caller.
func (c *Core) CopyFrom(src *Core) {
	if len(src.rob) != 0 || len(src.fetchQ) != 0 || src.rsCount != 0 || src.uops.n != 0 ||
		src.lsqCount != 0 || src.mispFetchedUnresolved != 0 ||
		src.lastWriter != [isa.NumRegs]*DynUop{} {
		panic("core: CopyFrom requires a drained source pipeline")
	}
	c.now = src.now
	c.seq = src.seq
	c.fetchStallUntil = src.fetchStallUntil
	c.lineReadyAt = src.lineReadyAt
	c.curFetchLine = src.curFetchLine
	c.haltRetired = src.haltRetired
	c.fe.regs = src.fe.regs
	c.fe.pc = src.fe.pc
	c.fe.invalid = src.fe.invalid
	c.fe.halted = src.fe.halted
	c.src.SetPos(src.src.Pos())
	// Forks update their BranchStats in place, so each gets private copies.
	backing := make([]BranchStat, 0, len(src.Branches))
	c.Branches = make(map[uint64]*BranchStat, len(src.Branches))
	// Each entry is copied independently, so visiting order cannot matter.
	for pc, bs := range src.Branches { //brlint:allow determinism
		backing = append(backing, *bs)
		c.Branches[pc] = &backing[len(backing)-1]
	}
	c.C.CopyFrom(src.C)
}
