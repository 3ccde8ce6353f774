package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/runahead"
	"repro/internal/workloads"
)

// auditPredictor wraps a real predictor and audits the lifecycle contract
// the core owes it: every Info is committed at most once and released
// exactly once, every Snapshot is released exactly once, restores only
// target live snapshots, and once the pipeline is drained nothing is
// outstanding. Identity checks apply to pointer-typed objects
// (the pooled ones, where a double release corrupts the free list);
// value-typed infos are audited by count.
type auditPredictor struct {
	inner bpred.Predictor

	outInfos  int
	outSnaps  int
	liveInfos map[interface{}]struct{}
	liveSnaps map[interface{}]struct{}
	errs      []string
}

func newAuditPredictor(inner bpred.Predictor) *auditPredictor {
	return &auditPredictor{
		inner:     inner,
		liveInfos: make(map[interface{}]struct{}),
		liveSnaps: make(map[interface{}]struct{}),
	}
}

func (a *auditPredictor) fail(format string, args ...interface{}) {
	if len(a.errs) < 10 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

func isPtr(v interface{}) bool {
	return v != nil && reflect.ValueOf(v).Kind() == reflect.Ptr
}

func (a *auditPredictor) Name() string { return a.inner.Name() }

func (a *auditPredictor) Predict(pc uint64) (bool, bpred.Info) {
	dir, info := a.inner.Predict(pc)
	a.outInfos++
	if isPtr(info) {
		if _, dup := a.liveInfos[info]; dup {
			a.fail("info %p handed out twice without a release", info)
		}
		a.liveInfos[info] = struct{}{}
	}
	return dir, info
}

func (a *auditPredictor) OnFetch(pc uint64, dir bool) { a.inner.OnFetch(pc, dir) }

func (a *auditPredictor) Checkpoint() bpred.Snapshot {
	s := a.inner.Checkpoint()
	a.outSnaps++
	if isPtr(s) {
		if _, dup := a.liveSnaps[s]; dup {
			a.fail("snapshot %p handed out twice without a release", s)
		}
		a.liveSnaps[s] = struct{}{}
	}
	return s
}

func (a *auditPredictor) Restore(s bpred.Snapshot) {
	if isPtr(s) {
		if _, ok := a.liveSnaps[s]; !ok {
			a.fail("restore of unknown or already-released snapshot %p", s)
		}
	}
	a.inner.Restore(s)
}

func (a *auditPredictor) Release(s bpred.Snapshot) {
	a.outSnaps--
	if a.outSnaps < 0 {
		a.fail("more snapshot releases than checkpoints")
	}
	if isPtr(s) {
		if _, ok := a.liveSnaps[s]; !ok {
			a.fail("double release of snapshot %p", s)
		}
		delete(a.liveSnaps, s)
	}
	a.inner.Release(s)
}

func (a *auditPredictor) Commit(pc uint64, taken, pred bool, info bpred.Info) {
	if isPtr(info) {
		if _, ok := a.liveInfos[info]; !ok {
			a.fail("commit of already-released info %p (pc %#x)", info, pc)
		}
	}
	a.inner.Commit(pc, taken, pred, info)
}

func (a *auditPredictor) ReleaseInfo(info bpred.Info) {
	a.outInfos--
	if a.outInfos < 0 {
		a.fail("more info releases than predictions")
	}
	if isPtr(info) {
		if _, ok := a.liveInfos[info]; !ok {
			a.fail("double release of info %p", info)
		}
		delete(a.liveInfos, info)
	}
	a.inner.ReleaseInfo(info)
}

func (a *auditPredictor) StorageBits() int { return a.inner.StorageBits() }

// ObserveRetire forwards the retired stream so a wrapped LDBP keeps
// learning (the core type-asserts the wrapper, not the inner predictor).
func (a *auditPredictor) ObserveRetire(pc uint64, value uint64) {
	if o, ok := a.inner.(bpred.RetireObserver); ok {
		o.ObserveRetire(pc, value)
	}
}

// atBarrier asserts the drained-pipeline invariant: nothing outstanding.
func (a *auditPredictor) atBarrier() {
	if a.outInfos != 0 {
		a.fail("%d infos outstanding in a drained pipeline", a.outInfos)
	}
	if a.outSnaps != 0 {
		a.fail("%d snapshots outstanding in a drained pipeline", a.outSnaps)
	}
}

// TestReleaseAuditQuickSuite runs the quick-suite workloads under every
// frontier predictor, with and without Branch Runahead (whose flushes and
// squash recoveries are the release paths under audit), and checks the
// Info/Snapshot lifecycle contract. Each run ends by draining the pipeline
// and verifying that it holds nothing back.
func TestReleaseAuditQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run audit sweep")
	}
	preds := []struct {
		name string
		kind PredictorKind
	}{
		{"tage64", PredTage64},
		{"gshare", PredGshare},
		{"perceptron", PredPerceptron},
		{"tournament", PredTournament},
		{"ldbp", PredLDBP},
		{"bullseye", PredBullseye},
	}
	var current *auditPredictor
	testWrapPredictor = func(p bpred.Predictor) bpred.Predictor {
		current = newAuditPredictor(p)
		return current
	}
	defer func() { testWrapPredictor = nil }()

	scale := workloads.SmallScale()
	for _, wl := range []string{"mcf_17", "leela_17", "bfs"} {
		for _, p := range preds {
			for _, withBR := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s", wl, p.name)
				cfg := Config{
					Core:      core.DefaultConfig(),
					Predictor: p.kind,
					Warmup:    20_000,
					MaxInstrs: 60_000,
				}
				if withBR {
					name += "+br"
					br := runahead.Mini()
					cfg.BR = &br
				}
				w, err := workloads.ByName(wl, scale)
				if err != nil {
					t.Fatal(err)
				}
				// Run's phases, then a drain: the zero-outstanding check
				// covers every release path, BR flushes included.
				m, err := newMachine(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.warmup(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := m.measure(snapshot(m.c, m.sys, m.hier)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := m.c.Drain(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				current.atBarrier()
				for _, e := range current.errs {
					t.Errorf("%s: %s", name, e)
				}
			}
		}
	}
}
