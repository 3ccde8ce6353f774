// Package mergepoint implements the paper's dynamic merge point predictor
// (§4.4) and the affector/guard detection built on it.
//
// On a pipeline flush the squashed wrong-path micro-ops are copied from the
// ROB into the Wrong Path Buffer (WPB) together with a running destination
// set. As correct-path micro-ops retire, the first PC that hits the WPB is
// the predicted merge point — the instruction where control reconverges
// regardless of the branch direction. Branches observed on either path
// before the merge point are *guarded* by the merge-predicted branch.
// Registers and memory written on either path (the both-path dest set) seed
// a poison-propagation pass over subsequent correct-path retires, adapted
// from Runahead Execution: any branch that sources poison has its data
// affected by the merge-predicted branch's direction, making that branch an
// *affectee* (the merge-predicted branch its affector).
package mergepoint

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Config sizes the predictor. Defaults follow Table 1: a 128-entry, 4-way
// WPB with a maximum merge point distance of 256 micro-ops (the search is
// additionally cut at 100 micro-ops of ROB walk, the paper's experimental
// value).
type Config struct {
	WPBEntries    int
	WPBWays       int
	MaxWalk       int // maximum wrong-path micro-ops copied on a flush
	MaxMergeDist  int // maximum correct-path distance to search for a merge
	MaxPoisonDist int // maximum correct-path distance for poison propagation
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		WPBEntries:    128,
		WPBWays:       4,
		MaxWalk:       100,
		MaxMergeDist:  256,
		MaxPoisonDist: 256,
	}
}

// Sink receives detected relations. The Hard Branch Table implements it.
type Sink interface {
	// Guard reports that guardPC controls the execution of guardedPC.
	Guard(guardPC, guardedPC uint64)
	// Affector reports that affectorPC can change data sourced by
	// affecteePC.
	Affector(affectorPC, affecteePC uint64)
}

// DestSet tracks architectural destinations: a register bit-vector plus a
// small bloom filter over written memory addresses.
type DestSet struct {
	Regs uint64
	Mem  uint64 // 64-bit bloom filter, two hash functions
}

// AddReg marks a register written.
func (d *DestSet) AddReg(r isa.Reg) {
	if r.Valid() {
		d.Regs |= 1 << uint(r)
	}
}

// HasReg reports whether a register is marked.
func (d *DestSet) HasReg(r isa.Reg) bool {
	return r.Valid() && d.Regs&(1<<uint(r)) != 0
}

func memHashes(addr uint64) (uint, uint) {
	a := addr >> 2 // word granularity
	h1 := (a ^ (a >> 7)) & 63
	h2 := ((a * 0x9e3779b97f4a7c15) >> 58) & 63
	return uint(h1), uint(h2)
}

// AddMem marks a memory address written.
func (d *DestSet) AddMem(addr uint64) {
	h1, h2 := memHashes(addr)
	d.Mem |= 1<<h1 | 1<<h2
}

// MaybeMem reports whether a memory address may have been written (bloom
// semantics: false positives possible, false negatives not).
func (d *DestSet) MaybeMem(addr uint64) bool {
	h1, h2 := memHashes(addr)
	return d.Mem&(1<<h1) != 0 && d.Mem&(1<<h2) != 0
}

// Or merges another dest set into this one.
func (d *DestSet) Or(o DestSet) {
	d.Regs |= o.Regs
	d.Mem |= o.Mem
}

// Empty reports whether nothing is marked.
func (d *DestSet) Empty() bool { return d.Regs == 0 && d.Mem == 0 }

type wpbEntry struct {
	pc    uint64
	dest  DestSet // destinations seen up to this point on the wrong path
	valid bool
	lru   uint64
}

type phase uint8

const (
	phIdle phase = iota
	phSearch
	phPoison
)

// Predictor is the merge point predictor state machine. One session runs at
// a time; a new qualifying flush restarts it.
type Predictor struct {
	cfg  Config
	sink Sink

	sets     [][]wpbEntry
	nSets    int
	lruClock uint64

	ph           phase
	branchPC     uint64 // the merge-predicted branch
	armed        bool   // set once the merge-predicted branch retires
	correctDest  DestSet
	dist         int
	wrongBr      []uint64 // conditional branch PCs observed on the wrong path
	correctBr    []uint64 // conditional branch PCs observed on the correct path
	wrongPathEnd DestSet  // full wrong-path dest set at walk end

	poison     DestSet
	poisonDist int

	C *stats.Counters
	// ctr holds dense handles into C for the session-path events; the
	// values live in C.
	ctr mpCounters
}

// mpCounters are pre-registered handles for the retire-path events.
type mpCounters struct {
	sessions      stats.Counter
	mergesFound   stats.Counter
	mergesMissed  stats.Counter
	selfAffectors stats.Counter
	affectees     stats.Counter
}

// Validate checks the predictor geometry and search limits.
func (c Config) Validate() error {
	if c.WPBWays < 1 {
		return fmt.Errorf("mergepoint: WPB ways %d must be >= 1", c.WPBWays)
	}
	if c.WPBEntries < c.WPBWays || c.WPBEntries%c.WPBWays != 0 {
		return fmt.Errorf("mergepoint: %d WPB entries do not divide into %d-way sets",
			c.WPBEntries, c.WPBWays)
	}
	if c.MaxWalk < 1 || c.MaxMergeDist < 1 || c.MaxPoisonDist < 1 {
		return fmt.Errorf("mergepoint: walk and search distances must be >= 1")
	}
	return nil
}

// New builds a predictor reporting into sink.
func New(cfg Config, sink Sink) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic("mergepoint: " + err.Error())
	}
	nSets := cfg.WPBEntries / cfg.WPBWays
	p := &Predictor{cfg: cfg, sink: sink, nSets: nSets, C: stats.NewCounters()}
	p.ctr = mpCounters{
		sessions:      p.C.Handle("sessions"),
		mergesFound:   p.C.Handle("merges_found"),
		mergesMissed:  p.C.Handle("merges_missed"),
		selfAffectors: p.C.Handle("self_affectors"),
		affectees:     p.C.Handle("affectees"),
	}
	p.sets = make([][]wpbEntry, nSets)
	for i := range p.sets {
		p.sets[i] = make([]wpbEntry, cfg.WPBWays)
	}
	// Session branch lists are bounded by the walk and search limits;
	// allocating to those bounds up front keeps OnFlush/OnRetire free of
	// allocation in steady state.
	p.wrongBr = make([]uint64, 0, cfg.MaxWalk)
	p.correctBr = make([]uint64, 0, cfg.MaxMergeDist)
	return p
}

func (p *Predictor) clearWPB() {
	for i := range p.sets {
		for j := range p.sets[i] {
			p.sets[i][j].valid = false
		}
	}
}

func (p *Predictor) insert(pc uint64, dest DestSet) {
	set := p.sets[pc%uint64(p.nSets)]
	p.lruClock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			// Keep the earliest occurrence (closest merge point).
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = wpbEntry{pc: pc, dest: dest, valid: true, lru: p.lruClock}
}

func (p *Predictor) lookup(pc uint64) (DestSet, bool) {
	set := p.sets[pc%uint64(p.nSets)]
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			return set[i].dest, true
		}
	}
	return DestSet{}, false
}

// OnFlush begins a merge-point session from a correct-path misprediction:
// the forward ROB walk copies wrong-path PCs and running dest sets into the
// WPB. Wrong-path flushes are ignored.
func (p *Predictor) OnFlush(cause *core.DynUop, squashed []*core.DynUop) {
	if cause.WrongPath || !cause.IsCondBr {
		return
	}
	p.clearWPB()
	p.ph = phSearch
	p.branchPC = cause.U.PC
	p.armed = false
	p.correctDest = DestSet{}
	p.dist = 0
	p.wrongBr = p.wrongBr[:0]
	p.correctBr = p.correctBr[:0]
	p.ctr.sessions.Inc()

	var running DestSet
	var dstBuf [2]isa.Reg
	walked := 0
	for _, d := range squashed {
		if walked >= p.cfg.MaxWalk {
			break
		}
		if d.U.PC == cause.U.PC {
			// Second dynamic instance of the branch: we are in a loop and
			// the walk is complete.
			break
		}
		walked++
		// The entry's dest set covers wrong-path writes strictly before
		// this instruction: if this instruction is the merge point, its own
		// writes happen on both paths and are not direction-dependent.
		p.insert(d.U.PC, running)
		for _, r := range dstBuf[:d.U.DstRegN(&dstBuf)] {
			running.AddReg(r)
		}
		if d.IsStore() {
			running.AddMem(d.Res.MemAddr)
		}
		if d.U.Op.IsCondBranch() {
			// At most MaxWalk branches are walked, matching the capacity
			// reserved in New, so this never extends past it.
			if n := len(p.wrongBr); n < cap(p.wrongBr) {
				p.wrongBr = p.wrongBr[:n+1]
				p.wrongBr[n] = d.U.PC
			}
		}
	}
	p.wrongPathEnd = running
}

// OnRetire observes one correct-path retired micro-op and advances the
// session state machine.
func (p *Predictor) OnRetire(d *core.DynUop) {
	switch p.ph {
	case phIdle:
		return
	case phSearch:
		p.searchStep(d)
	case phPoison:
		p.poisonStep(d)
	}
}

func (p *Predictor) searchStep(d *core.DynUop) {
	pc := d.U.PC
	if !p.armed {
		// Micro-ops older than the mispredicted branch drain first; the
		// branch's own retirement arms the merge search.
		if pc == p.branchPC {
			p.armed = true
		}
		return
	}
	if pc == p.branchPC {
		// Second correct-path instance of the branch without a merge: the
		// session fails.
		p.fail()
		return
	}
	p.dist++
	if p.dist > p.cfg.MaxMergeDist {
		p.fail()
		return
	}
	if dest, hit := p.lookup(pc); hit {
		// Merge point found.
		p.ctr.mergesFound.Inc()
		both := dest
		both.Or(p.correctDest)
		for _, b := range p.wrongBr {
			if b != p.branchPC {
				p.sink.Guard(p.branchPC, b)
			}
		}
		for _, b := range p.correctBr {
			if b != p.branchPC {
				p.sink.Guard(p.branchPC, b)
			}
		}
		p.poison = both
		p.poisonDist = 0
		p.ph = phPoison
		return
	}
	var dstBuf [2]isa.Reg
	for _, r := range dstBuf[:d.U.DstRegN(&dstBuf)] {
		p.correctDest.AddReg(r)
	}
	if d.IsStore() {
		p.correctDest.AddMem(d.Res.MemAddr)
	}
	if d.U.Op.IsCondBranch() {
		// At most MaxMergeDist retires are searched, matching the capacity
		// reserved in New, so this never extends past it.
		if n := len(p.correctBr); n < cap(p.correctBr) {
			p.correctBr = p.correctBr[:n+1]
			p.correctBr[n] = pc
		}
	}
}

func (p *Predictor) poisonStep(d *core.DynUop) {
	if d.U.PC == p.branchPC {
		// The second instance terminates the pass, but first check whether
		// the branch sources its own poison: "Any branch, including the
		// merge predicted branch, that sources poison is considered to be
		// an affectee" — a self-affector, whose dependence chain must be
		// direction-tagged rather than wildcard-tagged.
		var srcBuf [4]isa.Reg
		for _, r := range srcBuf[:d.U.SrcRegN(&srcBuf)] {
			if p.poison.HasReg(r) {
				p.ctr.selfAffectors.Inc()
				p.sink.Affector(p.branchPC, p.branchPC)
				break
			}
		}
		p.finish()
		return
	}
	p.poisonDist++
	if p.poisonDist > p.cfg.MaxPoisonDist {
		p.finish()
		return
	}
	// Does this micro-op source poison?
	var srcBuf [4]isa.Reg
	poisoned := false
	for _, r := range srcBuf[:d.U.SrcRegN(&srcBuf)] {
		if p.poison.HasReg(r) {
			poisoned = true
			break
		}
	}
	if !poisoned && d.IsLoad() && p.poison.MaybeMem(d.Res.MemAddr) {
		poisoned = true
	}
	if d.U.Op.IsCondBranch() {
		if poisoned {
			p.ctr.affectees.Inc()
			p.sink.Affector(p.branchPC, d.U.PC)
		}
		return
	}
	var dstBuf [2]isa.Reg
	if poisoned {
		for _, r := range dstBuf[:d.U.DstRegN(&dstBuf)] {
			p.poison.AddReg(r)
		}
		if d.IsStore() {
			p.poison.AddMem(d.Res.MemAddr)
		}
	} else {
		// Overwriting a poisoned register with clean data clears it.
		for _, r := range dstBuf[:d.U.DstRegN(&dstBuf)] {
			if p.poison.HasReg(r) {
				p.poison.Regs &^= 1 << uint(r)
			}
		}
		// Bloom filters cannot clear; stores of clean data leave the
		// filter conservative (a known over-approximation).
	}
}

func (p *Predictor) fail() {
	p.ctr.mergesMissed.Inc()
	p.ph = phIdle
	p.clearWPB()
}

func (p *Predictor) finish() {
	p.ph = phIdle
	p.clearWPB()
}

// Accuracy returns the fraction of sessions that found a merge point.
func (p *Predictor) Accuracy() float64 {
	return stats.Rate(p.C.Get("merges_found"), p.C.Get("sessions"))
}
