package runahead

import (
	"sort"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// envVal is one architectural-register binding in a chain instance's
// inherited environment: either a concrete value or a reference into a
// producer instance's local register file (the dynamic half of global
// rename, Figure 8).
type envVal struct {
	known    bool
	val      uint64
	src      *Instance
	srcLocal int
}

// pendingLiveIn is an unresolved live-in awaiting a producer-instance local
// register.
type pendingLiveIn struct {
	local    int
	src      *Instance
	srcLocal int
}

// Instance is one dynamic execution of a dependence chain: a local register
// file plus a local reservation station (paper §4.2).
type Instance struct {
	id    uint64
	chain *Chain

	vals     []uint64
	ready    []bool
	issued   []bool
	executed []bool
	doneAt   []uint64
	outcomes []bool // per-uop branch outcome (only the final entry is used)

	env     [isa.NumRegs]envVal
	pending []pendingLiveIn

	q       *Queue
	slotIdx uint64
	slotGen uint64

	completed bool
	killed    bool
	outcome   bool

	// Scheduling acceleration: wake marks instances that may have issuable
	// micro-ops; inflight lists issued-but-unfinished micro-op indices;
	// unissued counts micro-ops not yet issued.
	wake     bool
	inflight []int
	unissued int

	// Predictive initiation bookkeeping. specDepth counts unresolved
	// speculative initiations in this instance's ancestry; it bounds how
	// deep the engine speculates through unresolved trigger outcomes.
	specPredicted bool
	predOut       bool
	specDepth     int
	// initiated tracks successor chains already launched from this
	// instance, preventing double initiation between the early and
	// completion trigger points. A linear list, not a map: an instance has
	// a handful of successor chains at most.
	initiated []*Chain
}

// hasInitiated reports whether ch was already launched from this instance.
func (in *Instance) hasInitiated(ch *Chain) bool {
	for _, c := range in.initiated {
		if c == ch {
			return true
		}
	}
	return false
}

func (in *Instance) done() bool { return in.completed || in.killed }

// deferredInit retries an initiation that failed for lack of window or
// prediction-queue space.
type deferredInit struct {
	parent *Instance
	chain  *Chain
}

// DCE is the Dependence Chain Engine: the dedicated unit that executes
// dependence chains, sharing the D-cache with the core (core priority) and
// pushing computed branch outcomes into the prediction queues.
type DCE struct {
	cfg    *Config
	dcache *cache.Cache
	// dtlb is shared with the core (may be nil).
	dtlb     *cache.TLB
	mem      *emu.Memory
	cc       *ChainCache
	pqs      *PQSet
	initPred *bpred.CounterTable

	// all holds instances whose completion trigger is still pending, in
	// initiation order; triggers fire strictly in this order so prediction
	// queue slots stay in program order even when chains complete out of
	// order.
	all []*Instance
	// run holds the initiated-but-not-done instances (the scan set for
	// scheduling), in initiation order.
	run       []*Instance
	activeRun int // count of initiated-but-not-done instances (the window)
	nextID    uint64
	deferred  []deferredInit
	// deferredSpare is the detached backing retryDeferred swaps with
	// deferred each Tick, so the retry loop reuses two arrays forever
	// instead of reallocating per cycle. Pure scratch between Ticks.
	deferredSpare []deferredInit
	// spareIssue/spareRS are per-Tick scratch (Core-Only: the cycle's
	// borrowed issue slots), rewritten before each use.
	spareIssue int
	spareRS    int

	C *stats.Counters
	// Dense handles for the engine's per-event counters; the values live
	// in C.
	ctr dceCounters

	// tr is the structured event tracer (nil when tracing is off).
	tr *trace.Tracer
}

// dceCounters are pre-registered handles; uopsIssued and loadsIssued fire
// once per DCE micro-op, the hottest counters in the engine.
type dceCounters struct {
	syncs, syncMiss, divergences         stats.Counter
	initWindowFull, initQueueFull        stats.Counter
	instances, predictiveFlushes         stats.Counter
	completions, uopsIssued, loadsIssued stats.Counter
}

// NewDCE wires the engine.
func NewDCE(cfg *Config, dcache *cache.Cache, mem *emu.Memory, cc *ChainCache, pqs *PQSet) *DCE {
	if err := cfg.Validate(); err != nil {
		panic("runahead: " + err.Error())
	}
	e := &DCE{
		cfg:      cfg,
		dcache:   dcache,
		mem:      mem,
		cc:       cc,
		pqs:      pqs,
		initPred: bpred.NewCounterTable(10),
		C:        stats.NewCounters(),
	}
	e.ctr = dceCounters{
		syncs:             e.C.Handle("syncs"),
		syncMiss:          e.C.Handle("sync_miss"),
		divergences:       e.C.Handle("divergences"),
		initWindowFull:    e.C.Handle("init_window_full"),
		initQueueFull:     e.C.Handle("init_queue_full"),
		instances:         e.C.Handle("instances"),
		predictiveFlushes: e.C.Handle("predictive_flushes"),
		completions:       e.C.Handle("completions"),
		uopsIssued:        e.C.Handle("uops_issued"),
		loadsIssued:       e.C.Handle("loads_issued"),
	}
	return e
}

// windowFree reports whether another instance fits.
func (e *DCE) windowFree() bool {
	if e.activeRun >= e.cfg.Window {
		return false
	}
	if e.cfg.SharedWithCore {
		// Core-Only borrows core reservation stations: one chain occupies
		// up to MaxChainLen entries.
		if e.spareRS < (e.activeRun+1)*e.cfg.MaxChainLen {
			return false
		}
	}
	return true
}

// Sync enters (or re-enters) runahead mode from a core misprediction of
// (pc, taken): matching chains are initiated with live-ins copied from the
// core's architectural registers, and their prediction queues are
// synchronized with fetch (paper §4.1). The mispredicting branch's own
// family is resynchronized too ("the mispredicting chain is synchronized
// ... and chain execution resumes"), even when its chains are triggered by
// other branches.
func (e *DCE) Sync(now uint64, pc uint64, taken bool, regs *emu.RegFile) {
	matching := e.cc.Lookup(pc, taken)
	if len(matching) == 0 {
		e.ctr.syncMiss.Inc()
		return
	}
	e.ctr.syncs.Inc()

	// Deactivate stale instances of the affected chain families, including
	// the mispredicting branch's own.
	families := make(map[uint64]bool, len(matching)+1)
	if e.hasChainsFor(pc) {
		families[pc] = true
	}
	for _, ch := range matching {
		families[ch.BranchPC] = true
	}
	for _, in := range e.all {
		if !in.done() && families[in.chain.BranchPC] {
			e.kill(now, in)
		}
	}
	live := e.deferred[:0]
	for _, d := range e.deferred {
		if !families[d.chain.BranchPC] {
			live = append(live, d)
		}
	}
	e.deferred = live

	// Synchronize the prediction queues with fetch. Ensure may evict a
	// queue, so the iteration order must be deterministic: sort the PCs.
	fams := make([]uint64, 0, len(families))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for fam := range families { //brlint:allow determinism
		fams = append(fams, fam)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	for _, fam := range fams {
		if q := e.pqs.Ensure(fam, now); q != nil {
			q.reset(now)
		}
	}

	// Initiate the matching chains with concrete live-ins from the core.
	var env [isa.NumRegs]envVal
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		env[r] = envVal{known: true, val: regs.Get(r)}
	}
	for _, ch := range matching {
		e.initiate(now, ch, &env, nil)
	}
}

// hasChainsFor reports whether any cached chain computes branch pc.
func (e *DCE) hasChainsFor(pc uint64) bool {
	for _, ch := range e.cc.All() {
		if ch.BranchPC == pc {
			return true
		}
	}
	return false
}

// DeactivateFamily kills the active instances computing branch pc and marks
// its queue inactive (divergence detected at retire; resynchronization
// happens at the next core misprediction).
func (e *DCE) DeactivateFamily(now uint64, pc uint64) {
	for _, in := range e.all {
		if !in.done() && in.chain.BranchPC == pc {
			e.kill(now, in)
		}
	}
	if q := e.pqs.For(pc); q != nil {
		q.active = false
	}
	e.ctr.divergences.Inc()
}

func (e *DCE) kill(now uint64, in *Instance) {
	if in.done() {
		return
	}
	in.killed = true
	e.activeRun--
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: in.chain.BranchPC, Seq: in.id, Kind: trace.KindChainKill,
		})
	}
}

// initiate launches one dynamic chain instance. env supplies the inherited
// architectural environment (concrete at synchronization; partially
// references into parent for continuous execution). Returns nil when the
// window or the prediction queue is full.
func (e *DCE) initiate(now uint64, ch *Chain, env *[isa.NumRegs]envVal, parent *Instance) *Instance {
	q := e.admit(now, ch)
	if q == nil {
		return nil
	}
	return e.launch(now, ch, env, parent, q)
}

// initiateFrom is initiate for a child inheriting parent's environment; the
// environment is built only after the admission checks pass, so a deferred
// initiation retried against a full window costs two comparisons, not a
// whole-register-file copy.
func (e *DCE) initiateFrom(now uint64, ch *Chain, parent *Instance) *Instance {
	q := e.admit(now, ch)
	if q == nil {
		return nil
	}
	env := childEnv(parent)
	return e.launch(now, ch, &env, parent, q)
}

// admit performs initiation's capacity checks — instance window and
// prediction queue — counting each refusal exactly as initiate always has.
func (e *DCE) admit(now uint64, ch *Chain) *Queue {
	if !e.windowFree() {
		e.ctr.initWindowFull.Inc()
		return nil
	}
	q := e.pqs.Ensure(ch.BranchPC, now)
	if q == nil || q.full() {
		e.ctr.initQueueFull.Inc()
		return nil
	}
	return q
}

// launch builds the admitted instance.
func (e *DCE) launch(now uint64, ch *Chain, env *[isa.NumRegs]envVal, parent *Instance, q *Queue) *Instance {
	slot := q.alloc
	*q.slot(slot) = pqSlot{}
	q.alloc++

	n := len(ch.Uops)
	// Two backing allocations instead of six: the per-local and per-uop
	// word and bool arrays are carved from shared slabs (full-cap slices so
	// no region can grow into its neighbour).
	nl := ch.NumLocals
	words := make([]uint64, nl+n)
	flags := make([]bool, nl+3*n)
	in := &Instance{
		id:       e.nextID,
		chain:    ch,
		vals:     words[:nl:nl],
		doneAt:   words[nl:],
		ready:    flags[:nl:nl],
		issued:   flags[nl : nl+n : nl+n],
		executed: flags[nl+n : nl+2*n : nl+2*n],
		outcomes: flags[nl+2*n:],
		env:      *env,
		q:        q,
		slotIdx:  slot,
		slotGen:  q.gen,
		wake:     true,
		unissued: n,
	}
	e.nextID++
	_ = parent

	// Resolve live-ins from the environment.
	for _, li := range ch.LiveIns {
		ev := &in.env[li.Arch]
		switch {
		case ev.known:
			in.vals[li.Local] = ev.val
			in.ready[li.Local] = true
		case ev.src != nil:
			if ev.src.ready[ev.srcLocal] {
				v := ev.src.vals[ev.srcLocal]
				in.vals[li.Local] = v
				in.ready[li.Local] = true
				// Concretize for our own successors too.
				*ev = envVal{known: true, val: v}
			} else {
				in.pending = append(in.pending, pendingLiveIn{
					local: li.Local, src: ev.src, srcLocal: ev.srcLocal})
			}
		default:
			// Unbound register: treat as zero (cannot happen after a sync,
			// which binds every register).
			in.vals[li.Local] = 0
			in.ready[li.Local] = true
		}
	}

	e.all = append(e.all, in)
	e.run = append(e.run, in)
	e.activeRun++
	e.ctr.instances.Inc()
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: ch.BranchPC, Seq: in.id, Kind: trace.KindChainInit, Arg: slot,
		})
	}
	e.onInitiated(now, in)
	return in
}

// childEnv builds the environment a successor inherits: the parent's
// environment overlaid with the parent's live-outs (global rename).
func childEnv(parent *Instance) [isa.NumRegs]envVal {
	env := parent.env
	for _, lo := range parent.chain.LiveOuts {
		if parent.ready[lo.Local] {
			env[lo.Arch] = envVal{known: true, val: parent.vals[lo.Local]}
		} else {
			env[lo.Arch] = envVal{src: parent, srcLocal: lo.Local}
		}
	}
	return env
}

// onInitiated fires the early (initiation-time) triggers of the configured
// policy.
// maxSpecDepth bounds how many unresolved speculative trigger outcomes an
// initiation chain may stack. Beyond a few coin flips the probability that
// a deeper instance survives is negligible, while the flush cost of being
// wrong grows with the window.
const maxSpecDepth = 12

func (e *DCE) onInitiated(now uint64, in *Instance) {
	if e.cfg.InitMode == NonSpeculative {
		return
	}
	pc := in.chain.BranchPC
	// Independent-early: wildcard successors don't care about the outcome;
	// they inherit the parent's speculation depth.
	for _, ch := range e.cc.Wildcards(pc) {
		e.tryInitiateChild(now, in, ch, in.specDepth)
	}
	if e.cfg.InitMode == Predictive && in.specDepth < maxSpecDepth {
		// Predict the outcome with the per-branch 3-bit counter and
		// speculatively initiate directional successors. The speculation
		// (and its flush-on-mispredict) only exists when directional
		// successor chains actually got initiated on it.
		predOut := e.initPred.Predict(pc)
		specs := e.cc.NonWildcards(pc, predOut)
		if len(specs) > 0 {
			in.specPredicted = true
			in.predOut = predOut
			for _, ch := range specs {
				e.tryInitiateChild(now, in, ch, in.specDepth+1)
			}
		}
	}
}

func (e *DCE) tryInitiateChild(now uint64, parent *Instance, ch *Chain, specDepth int) {
	if parent.hasInitiated(ch) {
		return
	}
	if child := e.initiateFrom(now, ch, parent); child != nil {
		child.specDepth = specDepth
		parent.initiated = append(parent.initiated, ch)
	} else if len(e.deferred) < 64 {
		e.deferred = append(e.deferred, deferredInit{parent: parent, chain: ch})
		parent.initiated = append(parent.initiated, ch) // the deferral owns the retry
	}
}

// fireCompletionTriggers runs when in's (in-order) trigger slot comes up.
func (e *DCE) fireCompletionTriggers(now uint64, in *Instance) {
	pc := in.chain.BranchPC
	e.initPred.Update(pc, in.outcome)

	if e.cfg.InitMode == Predictive && in.specPredicted && in.predOut != in.outcome {
		// Speculative initiations went down the wrong direction: flush
		// everything younger and initiate the correct chains (paper §4.1).
		e.flushYoungerThan(now, in)
		e.ctr.predictiveFlushes.Inc()
	}
	for _, ch := range e.cc.Lookup(pc, in.outcome) {
		// Completion-confirmed initiations carry no new speculation.
		e.tryInitiateChild(now, in, ch, in.specDepth)
	}
}

// flushYoungerThan kills every instance initiated after in and rewinds the
// affected prediction queues' allocation pointers. Instances are ordered by
// id in e.all, so the walk starts from the tail and stops at in. Completed
// younger instances were built on the wrong speculation too: their slots
// rewind and their completion triggers are suppressed.
func (e *DCE) flushYoungerThan(now uint64, in *Instance) {
	minAlloc := make(map[*Queue]uint64)
	for k := len(e.all) - 1; k >= 0; k-- {
		o := e.all[k]
		if o.id <= in.id {
			break
		}
		if o.killed {
			continue
		}
		if o.completed {
			o.killed = true // suppress the pending completion trigger
		} else {
			e.kill(now, o)
		}
		if o.q != nil && o.q.gen == o.slotGen {
			if cur, ok := minAlloc[o.q]; !ok || o.slotIdx < cur {
				minAlloc[o.q] = o.slotIdx
			}
		}
	}
	// Each iteration touches only its own queue, so order cannot matter.
	for q, idx := range minAlloc { //brlint:allow determinism
		if q.alloc > idx {
			q.alloc = idx
		}
		if q.fetch > q.alloc {
			// Fetch already consumed rewound slots; the queue is out of
			// sync until the next synchronization.
			q.fetch = q.alloc
		}
	}
	// Deferred initiations from flushed parents are dead.
	live := e.deferred[:0]
	for _, d := range e.deferred {
		if !d.parent.killed {
			live = append(live, d)
		}
	}
	e.deferred = live
}

// Idle reports that the engine has no in-flight work: no resident chain
// instances, nothing runnable and no deferred initializations, so every
// phase of Tick would fall straight through.
func (e *DCE) Idle() bool {
	return len(e.all) == 0 && len(e.run) == 0 && len(e.deferred) == 0
}

// Tick advances the engine one cycle. spareIssue/spareRS report the core's
// per-cycle slack (used by the Core-Only configuration).
//
//brlint:hotpath
func (e *DCE) Tick(now uint64, spareIssue, spareRS int) {
	e.spareIssue = spareIssue
	e.spareRS = spareRS

	e.compactRun()
	e.resolvePending(now)
	e.completeExecution(now)
	e.processTriggers(now)
	e.retryDeferred(now)
	e.issue(now)
	e.compact()
}

// compactRun drops done instances from the scheduling scan set.
func (e *DCE) compactRun() {
	live := e.run[:0]
	for _, in := range e.run {
		if !in.done() {
			live = append(live, in)
		}
	}
	e.run = live
}

// resolvePending copies producer locals into waiting live-ins.
func (e *DCE) resolvePending(now uint64) {
	for _, in := range e.run {
		if in.done() || len(in.pending) == 0 {
			continue
		}
		keep := in.pending[:0]
		for _, p := range in.pending {
			switch {
			case p.src.killed:
				e.kill(now, in)
			case p.src.ready[p.srcLocal]:
				in.vals[p.local] = p.src.vals[p.srcLocal]
				in.ready[p.local] = true
				in.wake = true
			default:
				keep = append(keep, p)
			}
		}
		in.pending = keep
	}
}

// completeExecution publishes results whose latency has elapsed and
// completes instances whose branch resolved.
func (e *DCE) completeExecution(now uint64) {
	for _, in := range e.run {
		if in.done() || len(in.inflight) == 0 {
			continue
		}
		live := in.inflight[:0]
		for _, i := range in.inflight {
			if in.doneAt[i] > now {
				live = append(live, i)
				continue
			}
			in.executed[i] = true
			in.wake = true
			u := &in.chain.Uops[i]
			if u.Dst >= 0 {
				in.ready[u.Dst] = true
			}
			if i == len(in.chain.Uops)-1 {
				// The chain's branch: the outcome is ready.
				in.outcome = in.outcomes[i]
				in.completed = true
				e.activeRun--
				e.ctr.completions.Inc()
				if e.tr.Enabled() {
					e.tr.Emit(trace.Event{
						Cycle: now, PC: in.chain.BranchPC, Seq: in.id,
						Kind: trace.KindChainComplete, Flag: in.outcome,
					})
				}
				// Push into the prediction queue.
				if in.q.gen == in.slotGen {
					s := in.q.slot(in.slotIdx)
					s.filled = true
					s.value = in.outcome
					if e.tr.Enabled() {
						e.tr.Emit(trace.Event{
							Cycle: now, PC: in.q.branchPC, Seq: in.id,
							Kind: trace.KindPQFill, Arg: in.slotIdx, Flag: in.outcome,
						})
					}
				}
			}
		}
		in.inflight = live
	}
}

// processTriggers fires completion triggers strictly in initiation order,
// concretizing environments so ancestor instances can be released.
func (e *DCE) processTriggers(now uint64) {
	for len(e.all) > 0 {
		in := e.all[0]
		if !in.done() {
			return
		}
		// All our env references point at ancestors whose triggers have
		// already fired (they are complete): concretize and drop them.
		for r := range in.env {
			ev := &in.env[r]
			if !ev.known && ev.src != nil && ev.src.ready[ev.srcLocal] {
				*ev = envVal{known: true, val: ev.src.vals[ev.srcLocal]}
			}
		}
		if in.completed && !in.killed {
			e.fireCompletionTriggers(now, in)
		}
		e.all = e.all[1:]
	}
}

// retryDeferred re-attempts initiations that previously hit a full window
// or queue.
func (e *DCE) retryDeferred(now uint64) {
	if len(e.deferred) == 0 {
		return
	}
	// Detach the list first: a successful initiation can defer new child
	// initiations, which must land on a fresh list rather than be lost to
	// aliasing. The detached backing becomes next Tick's spare, so the two
	// arrays ping-pong with no per-cycle allocation.
	pending := e.deferred
	e.deferred = e.deferredSpare[:0]
	for _, d := range pending {
		if d.parent.killed {
			continue
		}
		if e.initiateFrom(now, d.chain, d.parent) == nil {
			e.deferred = append(e.deferred, d)
		}
	}
	e.deferredSpare = pending[:0]
}

// issue schedules ready chain micro-ops onto the DCE's functional units
// (or the core's spare slots for Core-Only). ALU micro-ops consume the
// DCE's own issue bandwidth; loads consume load ports backed by the shared
// D-cache (Figure 7: ALU0/ALU1 plus the D-cache path).
func (e *DCE) issue(now uint64) {
	budget := e.cfg.IssueWidth
	if e.cfg.SharedWithCore {
		budget = e.spareIssue
	}
	loads := e.cfg.LoadPorts
	if budget <= 0 && loads <= 0 {
		return
	}
	for _, in := range e.run {
		if budget <= 0 && loads <= 0 {
			return
		}
		if in.done() || !in.wake || in.unissued == 0 {
			continue
		}
		stalled := true // no ready-but-unissued micro-op left behind
		for i := range in.chain.Uops {
			if in.issued[i] {
				continue
			}
			u := &in.chain.Uops[i]
			if e.cfg.InOrderChainExec && i > 0 && !in.issued[i-1] {
				break
			}
			if !e.srcsReady(in, u) {
				if e.cfg.InOrderChainExec {
					break
				}
				continue
			}
			if u.Op == isa.OpLd {
				if loads <= 0 {
					stalled = false // retry when a port frees
					continue
				}
				loads--
			} else {
				if budget <= 0 {
					stalled = false
					continue
				}
				budget--
			}
			e.executeUop(now, in, i, u)
		}
		// Sleep until an execution or live-in arrival wakes us.
		if stalled {
			in.wake = false
		}
	}
}

func (e *DCE) srcsReady(in *Instance, u *ChainUop) bool {
	if u.Src1 >= 0 && !in.ready[u.Src1] {
		return false
	}
	if u.Src2 >= 0 && !in.ready[u.Src2] {
		return false
	}
	return true
}

// executeUop computes a chain micro-op's value functionally (against
// committed memory) and models its latency.
func (e *DCE) executeUop(now uint64, in *Instance, i int, u *ChainUop) {
	in.issued[i] = true
	in.inflight = append(in.inflight, i)
	in.unissued--
	e.ctr.uopsIssued.Inc()
	src := func(l int) uint64 {
		if l < 0 {
			return 0
		}
		return in.vals[l]
	}
	switch u.Op {
	case isa.OpLd:
		addr := src(u.Src1) + uint64(u.Imm)
		if u.Scale > 0 {
			addr += src(u.Src2) * uint64(u.Scale)
		}
		v := e.mem.Read(addr, u.MemSize)
		if u.Signed {
			v = emu.SignExtend(v, u.MemSize)
		}
		in.vals[u.Dst] = v
		start := now
		if e.dtlb != nil {
			start = e.dtlb.Translate(now, addr)
		}
		in.doneAt[i] = e.dcache.AccessSecondary(start, addr)
		e.ctr.loadsIssued.Inc()
	case isa.OpCmp:
		b := src(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.CompareFlags(src(u.Src1), b).Pack()
		in.doneAt[i] = now + 1
	case isa.OpTest:
		b := src(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.TestFlags(src(u.Src1), b).Pack()
		in.doneAt[i] = now + 1
	case isa.OpBr:
		in.outcomes[i] = u.Cond.Eval(isa.UnpackFlags(src(u.Src1)))
		in.doneAt[i] = now + 1
	default:
		b := src(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.ALUResult(u.Op, src(u.Src1), b, u.Imm)
		lat := uint64(1)
		if u.Op == isa.OpMul {
			lat = 3
		}
		in.doneAt[i] = now + lat
	}
}

// compact drops killed instances from the head of the trigger list (done
// instances elsewhere are dropped by processTriggers).
func (e *DCE) compact() {
	for len(e.all) > 0 && e.all[0].killed {
		e.all = e.all[1:]
	}
}

// ActiveInstances returns the current window occupancy.
func (e *DCE) ActiveInstances() int { return e.activeRun }
