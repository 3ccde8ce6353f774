package mergepoint

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// LayoutPredictor is the prior-work comparison point: a merge point
// predictor that relies on code-layout assumptions instead of observing
// the wrong path (the approach of the static/layout heuristics the paper
// cites, which it reports at ~78% accuracy versus 92% for the WPB method).
//
// Heuristic: for a forward conditional branch, control is assumed to
// reconverge at the taken target (the skipped hammock's join); for a
// backward branch (a loop), at the fall-through (the loop exit). The
// prediction is scored the same way the WPB predictor scores itself: a
// session succeeds if the predicted PC is retired on the correct path
// within the maximum merge distance.
type LayoutPredictor struct {
	maxDist int

	active    bool
	branchPC  uint64
	predicted uint64
	armed     bool
	dist      int

	C *stats.Counters
	// ctr holds dense handles into C for the retire-path events; the
	// values live in C.
	ctr layoutCounters
}

// layoutCounters are pre-registered handles for the retire-path events.
type layoutCounters struct {
	sessions     stats.Counter
	mergesFound  stats.Counter
	mergesMissed stats.Counter
}

// NewLayoutPredictor returns a layout-heuristic predictor with the given
// maximum merge distance.
func NewLayoutPredictor(maxDist int) *LayoutPredictor {
	p := &LayoutPredictor{maxDist: maxDist, C: stats.NewCounters()}
	p.ctr = layoutCounters{
		sessions:     p.C.Handle("sessions"),
		mergesFound:  p.C.Handle("merges_found"),
		mergesMissed: p.C.Handle("merges_missed"),
	}
	return p
}

// OnFlush begins a session for a correct-path misprediction.
func (p *LayoutPredictor) OnFlush(cause *core.DynUop, _ []*core.DynUop) {
	if cause.WrongPath || !cause.IsCondBr {
		return
	}
	p.active = true
	p.armed = false
	p.branchPC = cause.U.PC
	p.dist = 0
	if cause.Res.Target > cause.U.PC {
		// Forward branch: assume the hammock joins at the taken target.
		p.predicted = cause.Res.Target
	} else {
		// Backward branch (loop): assume reconvergence at the exit.
		p.predicted = cause.Res.FallThrou
	}
	p.ctr.sessions.Inc()
}

// OnRetire observes one correct-path retired micro-op.
func (p *LayoutPredictor) OnRetire(d *core.DynUop) {
	if !p.active {
		return
	}
	pc := d.U.PC
	if !p.armed {
		if pc == p.branchPC {
			p.armed = true
		}
		return
	}
	if pc == p.predicted {
		p.ctr.mergesFound.Inc()
		p.active = false
		return
	}
	if pc == p.branchPC {
		// Second instance without reaching the predicted merge: miss.
		p.ctr.mergesMissed.Inc()
		p.active = false
		return
	}
	p.dist++
	if p.dist > p.maxDist {
		p.ctr.mergesMissed.Inc()
		p.active = false
	}
}

// Accuracy returns the fraction of sessions whose predicted merge point was
// reached.
func (p *LayoutPredictor) Accuracy() float64 {
	return stats.Rate(p.C.Get("merges_found"), p.C.Get("sessions"))
}
