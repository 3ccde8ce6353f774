// Package core implements the cycle-level out-of-order core that plays the
// role Scarab plays in the paper: an execution-driven model with fetch,
// decode/rename, dispatch, out-of-order issue, execute and in-order retire;
// a reorder buffer, reservation stations and a load-store queue; checkpointed
// branch recovery; and faithful wrong-path fetch *and* execution (the merge
// point predictor depends on real wrong-path micro-ops being in the ROB at
// flush time).
//
// The front-end executes micro-ops functionally at fetch (the role of PIN):
// values, branch outcomes and memory addresses are known at fetch time,
// while the backend models *when* those values become available. Fetch
// follows predicted branch directions, so the front-end naturally walks
// down the wrong path after a misprediction, with in-flight stores visible
// to younger loads through a speculative store overlay.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// Config parameterizes the core. DefaultConfig matches the paper's Table 1.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	RetireWidth int

	ROBSize    int
	RSSize     int
	LSQSize    int
	FetchQSize int

	IntALUs  int
	MemPorts int

	// FrontendDepth is the fetch-to-dispatch latency in cycles; together
	// with branch resolution time it sets the misprediction penalty.
	FrontendDepth uint64
	// RedirectPenalty is the additional bubble between a resolving
	// misprediction and the first corrected fetch.
	RedirectPenalty uint64

	MulLatency uint64
	DivLatency uint64
	FPLatency  uint64

	// UopBytes is the footprint of one micro-op in the instruction cache.
	UopBytes uint64

	// DisableCycleSkip turns off the dead-cycle fast-forward in Run. The
	// skip is result-invariant (pinned by the skip-equivalence test); this
	// knob exists so that test can compare both modes.
	DisableCycleSkip bool
}

// Validate checks the pipeline geometry: a malformed width or zero-sized
// structure deadlocks or trivially serializes the model rather than
// erroring, so reject it up front.
func (c Config) Validate() error {
	pos := func(name string, v int) error {
		if v < 1 {
			return fmt.Errorf("core config: %s = %d must be >= 1", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"RetireWidth", c.RetireWidth},
		{"ROBSize", c.ROBSize},
		{"RSSize", c.RSSize},
		{"LSQSize", c.LSQSize},
		{"FetchQSize", c.FetchQSize},
		{"IntALUs", c.IntALUs},
		{"MemPorts", c.MemPorts},
	} {
		if err := pos(f.name, f.v); err != nil {
			return err
		}
	}
	if c.ROBSize < c.RetireWidth {
		return fmt.Errorf("core config: ROBSize = %d cannot sustain RetireWidth = %d",
			c.ROBSize, c.RetireWidth)
	}
	if c.FrontendDepth < 1 {
		return fmt.Errorf("core config: FrontendDepth must be >= 1")
	}
	if c.MulLatency < 1 || c.DivLatency < 1 || c.FPLatency < 1 {
		return fmt.Errorf("core config: execution latencies must be >= 1")
	}
	if c.UopBytes < 1 {
		return fmt.Errorf("core config: UopBytes must be >= 1")
	}
	return nil
}

// DefaultConfig returns the Table 1 baseline: 4-wide issue, 256-entry ROB,
// 92-entry reservation stations.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		IssueWidth:      4,
		RetireWidth:     4,
		ROBSize:         256,
		RSSize:          92,
		LSQSize:         72,
		FetchQSize:      32,
		IntALUs:         4,
		MemPorts:        2,
		FrontendDepth:   6,
		RedirectPenalty: 2,
		MulLatency:      3,
		DivLatency:      20,
		FPLatency:       4,
		UopBytes:        4,
	}
}

// UopState tracks a dynamic micro-op through the pipeline.
type UopState uint8

// Pipeline states, in order.
const (
	StFetched UopState = iota // in the fetch queue
	StInRS                    // dispatched, waiting for operands or a unit
	StIssued                  // executing
	StDone                    // result available at DoneAt
	StRetired
	StSquashed
)

// DynUop is one dynamic micro-op instance.
type DynUop struct {
	Seq uint64
	U   *isa.Uop
	// Res holds the fetch-time functional results: values, branch outcome,
	// effective address.
	Res emu.StepResult
	// WrongPath marks micro-ops fetched beyond an unresolved mispredicted
	// branch.
	WrongPath bool

	// Branch prediction state (conditional branches only).
	IsCondBr  bool
	PredTaken bool
	// UsedDCE marks predictions supplied by a Branch Runahead prediction
	// queue instead of the baseline predictor.
	UsedDCE bool
	// TagePred records what the baseline predictor said, even when it was
	// overridden (needed for throttle-counter training).
	TagePred bool
	// Slot is the micro-op's index in the core's ring of in-flight
	// micro-ops, which also holds a conditional branch's recovery
	// checkpoints. No two in-flight micro-ops share a slot, and a slot is
	// reused once its micro-op retires or is squashed, so an extension may
	// key per-branch state by it and overwrite that state at the next
	// branch fetched into the same slot.
	Slot uint32

	// Scheduling state (see sched.go). storeDep is the older in-flight
	// store a load forwards
	// from, recorded at fetch; the store may retire and its slot be reused
	// before the load dispatches, so rename checks it by Seq and afterwards
	// it is only tested for nil. pending counts the sources rename found not
	// yet done. waiters heads the wakeup edges of the micro-ops waiting on
	// this one, youngest first; waitNext[k] links this micro-op's k-th edge
	// into its producer's list.
	storeDep *DynUop
	pending  uint8
	waiters  edge
	waitNext [maxEdges]edge
	State    UopState
	ReadyAt  uint64 // earliest dispatch cycle (fetch + frontend depth)
	DoneAt   uint64
	Mispred  bool // resolved direction differed from the prediction
	// wpCounted marks a branch counted in the core's wrong-path tracker;
	// it is released exactly once, at resolve or squash.
	wpCounted bool
}

// IsLoad reports whether the micro-op is a load.
func (d *DynUop) IsLoad() bool { return d.U.Op.IsLoad() }

// IsStore reports whether the micro-op is a store.
func (d *DynUop) IsStore() bool { return d.U.Op.IsStore() }

// resultPending reports whether d has been dispatched but has not completed.
func (d *DynUop) resultPending() bool { return d.State == StInRS || d.State == StIssued }

// Extension is the hook surface Branch Runahead plugs into. A nil extension
// yields the unmodified baseline core.
//
// Every *DynUop a hook receives is a slot of the core's micro-op ring, which
// the next fetch may reuse once the micro-op has retired or been squashed:
// an extension must not keep the pointer past the call.
type Extension interface {
	// FetchCondBranch may override the baseline prediction for a
	// conditional branch at fetch. It returns the final prediction and
	// whether it came from a prediction queue. An extension that needs a
	// per-branch checkpoint for Restore records it here, keyed by d.Slot,
	// before it changes any state.
	FetchCondBranch(now uint64, d *DynUop, basePred bool) (pred bool, fromDCE bool)
	// Restore rewinds extension fetch-side state to what it was when the
	// mispredicted branch cause was fetched, during a recovery at cycle
	// now.
	Restore(now uint64, cause *DynUop)
	// BranchResolved is called when a conditional branch executes.
	// correctRegs is the architectural register state at the branch (the
	// live-in source for chain synchronization); it is only non-nil for
	// mispredicted correct-path branches.
	BranchResolved(now uint64, d *DynUop, correctRegs *emu.RegFile)
	// Flush is called on a pipeline flush with the squashed micro-ops in
	// program order (the forward ROB walk the Wrong Path Buffer performs).
	Flush(now uint64, cause *DynUop, squashed []*DynUop)
	// Retired is called for every retired micro-op in program order.
	Retired(now uint64, d *DynUop)
	// Tick advances the extension one cycle (the DCE executes here).
	// info reports the core resources left over this cycle, which the
	// Core-Only DCE variant borrows.
	Tick(now uint64, info TickInfo)
	// Idle reports that the extension has no in-flight work, i.e. a Tick
	// would be a pure no-op. The core's dead-cycle skip consults it before
	// fast-forwarding through empty cycles.
	Idle() bool
}

// TickInfo reports per-cycle core resource slack to the extension.
type TickInfo struct {
	// SpareIssueSlots is the unused portion of the core's issue width.
	SpareIssueSlots int
	// SpareRS is the number of free reservation-station entries.
	SpareRS int
}

// Hierarchy bundles the memory system the core (and the DCE) accesses.
type Hierarchy struct {
	ICache *cache.Cache
	DCache *cache.Cache
	L2     *cache.Cache
	Mem    cache.MemLevel
	// DTLB, when non-nil, translates data addresses before D-cache access;
	// the DCE shares it with the core (paper §4.2).
	DTLB *cache.TLB
}
