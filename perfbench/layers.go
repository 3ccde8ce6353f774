package main

import (
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// span names one kind of call into a layer. Each kind belongs to exactly
// one layer (spanLayer); the runahead layer has one kind per timed
// core.Extension hook so its tick and retire costs can be told apart.
type span uint8

const (
	spanCore  span = iota // the root: Core.Run, minus everything below
	spanFetch             // core.InstrSource.FetchExec (emu or btrace)
	spanBpred             // every bpred.Predictor call the core makes
	spanL2                // cache.MemLevel.Access into the L2
	spanDRAM              // cache.MemLevel.Access into DRAM
	spanRATick
	spanRARetired
	spanRAFetch
	spanRAResolved
	spanRAFlush
	numSpans
)

// spanLayer maps each span kind to its layer: the internal/ package that
// does the work. The front-end's layer is "emu" or "btrace" depending on the
// machine's instruction source, so it is filled in per profiler.
var spanLayer = [numSpans]string{
	spanCore:       "core",
	spanFetch:      "",
	spanBpred:      "bpred",
	spanL2:         "cache",
	spanDRAM:       "dram",
	spanRATick:     "runahead",
	spanRARetired:  "runahead",
	spanRAFetch:    "runahead",
	spanRAResolved: "runahead",
	spanRAFlush:    "runahead",
}

// profiler keeps a stack of open spans and charges the time between two
// consecutive span boundaries to the span on top of the stack. That makes
// every span's total its self (exclusive) time, and the self times of all
// spans sum to the time between the first and the last boundary. One
// clock read per boundary keeps the cost at about two clock reads per call.
type profiler struct {
	front string // layer name of spanFetch: "emu" or "btrace"
	base  time.Time
	last  time.Duration
	stack []span
	self  [numSpans]time.Duration
	calls [numSpans]uint64
}

func newProfiler(front string) *profiler {
	return &profiler{front: front, base: time.Now(), stack: make([]span, 0, 16)}
}

func (p *profiler) enter(s span) {
	now := time.Since(p.base)
	if n := len(p.stack); n > 0 {
		p.self[p.stack[n-1]] += now - p.last
	}
	p.last = now
	p.stack = append(p.stack, s)
	p.calls[s]++
}

func (p *profiler) exit() {
	now := time.Since(p.base)
	n := len(p.stack)
	p.self[p.stack[n-1]] += now - p.last
	p.last = now
	p.stack = p.stack[:n-1]
}

// layerOf returns the layer a span kind's time is charged to.
func (p *profiler) layerOf(s span) string {
	if s == spanFetch {
		return p.front
	}
	return spanLayer[s]
}

// layerSelf sums self time per layer.
func (p *profiler) layerSelf() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for s := span(0); s < numSpans; s++ {
		out[p.layerOf(s)] += p.self[s]
	}
	return out
}

// add accumulates another profiler's totals (one traced simulation each).
func (p *profiler) add(q *profiler) {
	for s := range p.self {
		p.self[s] += q.self[s]
		p.calls[s] += q.calls[s]
	}
}

// timedSource times the front-end: every FetchExec call.
type timedSource struct {
	core.InstrSource
	p *profiler
}

func (t *timedSource) FetchExec(pc uint64, regs *emu.RegFile, view emu.MemView, wrongPath bool) (*isa.Uop, emu.StepResult, error) {
	t.p.enter(spanFetch)
	u, res, err := t.InstrSource.FetchExec(pc, regs, view, wrongPath)
	t.p.exit()
	return u, res, err
}

// timedPredictor times every bpred.Predictor call the core makes except the
// constant accessors Name and StorageBits.
type timedPredictor struct {
	bpred.Predictor
	p *profiler
}

func (t *timedPredictor) Predict(pc uint64) (bool, bpred.Info) {
	t.p.enter(spanBpred)
	taken, info := t.Predictor.Predict(pc)
	t.p.exit()
	return taken, info
}

func (t *timedPredictor) OnFetch(pc uint64, dir bool) {
	t.p.enter(spanBpred)
	t.Predictor.OnFetch(pc, dir)
	t.p.exit()
}

func (t *timedPredictor) Checkpoint() bpred.Snapshot {
	t.p.enter(spanBpred)
	s := t.Predictor.Checkpoint()
	t.p.exit()
	return s
}

func (t *timedPredictor) Restore(s bpred.Snapshot) {
	t.p.enter(spanBpred)
	t.Predictor.Restore(s)
	t.p.exit()
}

func (t *timedPredictor) Release(s bpred.Snapshot) {
	t.p.enter(spanBpred)
	t.Predictor.Release(s)
	t.p.exit()
}

func (t *timedPredictor) Commit(pc uint64, taken, pred bool, info bpred.Info) {
	t.p.enter(spanBpred)
	t.Predictor.Commit(pc, taken, pred, info)
	t.p.exit()
}

func (t *timedPredictor) ReleaseInfo(info bpred.Info) {
	t.p.enter(spanBpred)
	t.Predictor.ReleaseInfo(info)
	t.p.exit()
}

// timedMem times one memory level: every Access that reaches it from the
// level above, whoever issued it (core, DCE, TLB walk or prefetcher).
type timedMem struct {
	next cache.MemLevel
	p    *profiler
	s    span
}

func (t *timedMem) Access(now uint64, addr uint64, write bool) uint64 {
	t.p.enter(t.s)
	done := t.next.Access(now, addr, write)
	t.p.exit()
	return done
}

// timedExtension times the runahead layer's work hooks. The bookkeeping
// hooks (Checkpoint, Restore, the two Release hooks and Idle) pass through
// untimed, so their small cost lands in core self time.
type timedExtension struct {
	core.Extension
	p *profiler
}

func (t *timedExtension) Tick(now uint64, info core.TickInfo) {
	t.p.enter(spanRATick)
	t.Extension.Tick(now, info)
	t.p.exit()
}

func (t *timedExtension) Retired(now uint64, d *core.DynUop) {
	t.p.enter(spanRARetired)
	t.Extension.Retired(now, d)
	t.p.exit()
}

func (t *timedExtension) FetchCondBranch(now uint64, d *core.DynUop, basePred bool) (bool, bool) {
	t.p.enter(spanRAFetch)
	pred, fromDCE := t.Extension.FetchCondBranch(now, d, basePred)
	t.p.exit()
	return pred, fromDCE
}

func (t *timedExtension) BranchResolved(now uint64, d *core.DynUop, correctRegs *emu.RegFile) {
	t.p.enter(spanRAResolved)
	t.Extension.BranchResolved(now, d, correctRegs)
	t.p.exit()
}

func (t *timedExtension) Flush(now uint64, cause *core.DynUop, squashed []*core.DynUop) {
	t.p.enter(spanRAFlush)
	t.Extension.Flush(now, cause, squashed)
	t.p.exit()
}
