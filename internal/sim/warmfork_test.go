package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/runahead"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func mustWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name, workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// forkCfg is the WarmupBarrier-mode config the fork tests share, small
// enough to keep them fast. A non-nil br exercises the deferred boundary
// attach.
func forkCfg(br *runahead.Config) Config {
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	cfg.MaxInstrs = 40_000
	cfg.BR = br
	cfg.WarmupBarrier = true
	return cfg
}

// predictorKinds lists every PredictorKind newPredictor builds.
var predictorKinds = []PredictorKind{PredTage64, PredTage80, PredMTage, PredBimodal, PredGshare,
	PredPerceptron, PredTournament, PredLDBP, PredBullseye}

// TestForkEqualsStraightThrough forks configs from one shared Warm and
// requires each forked Result to deep-equal the straight-through Run of the
// identical config. On every quick-suite workload the TAGE baseline forks
// both the config that produced the Warm and one whose measure partition
// (budget and BR config) differs. On mcf_17 every other predictor, on both
// front-ends, forks too, so every predictor's CopyFrom and the trace
// source's stream position are exercised.
func TestForkEqualsStraightThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, name := range []string{"mcf_17", "leela_17", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, pk := range predictorKinds {
				for _, fe := range []FrontEndKind{FEExec, FETrace} {
					full := pk == PredTage64 && fe == FEExec
					if name != "mcf_17" && !full {
						continue
					}
					t.Run(configName(Config{Predictor: pk, FrontEnd: fe}), func(t *testing.T) {
						if full {
							mini, big := runahead.Mini(), runahead.Big()
							base := forkCfg(&mini)
							other := forkCfg(&big)
							other.MaxInstrs = 25_000
							forkMatchesStraight(t, name, base, other)
							return
						}
						// The other predictor and front-end cells fork the
						// predictor alone at a quarter of the budget: enough
						// to train every predictor, and cheap enough for
						// make race.
						cfg := forkCfg(nil)
						cfg.Predictor, cfg.FrontEnd = pk, fe
						cfg.Warmup /= 4
						cfg.MaxInstrs /= 4
						forkMatchesStraight(t, name, cfg)
					})
				}
			}
		})
	}
}

// forkMatchesStraight forks every config from one Warm of workload name,
// taken under cfgs[0], and compares each with its straight-through Run.
func forkMatchesStraight(t *testing.T, name string, cfgs ...Config) {
	w := mustWorkload(t, name)
	if cfgs[0].FrontEnd == FETrace {
		w = recordedWorkload(t, w, cfgs[0])
	}
	warm, err := WarmupSnapshot(w, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if WarmupKey(cfg) != WarmupKey(cfgs[0]) {
			t.Fatalf("measure-only edits changed the warmup key:\n%q\n%q",
				WarmupKey(cfgs[0]), WarmupKey(cfg))
		}
		straight, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := RunFromWarmup(w, cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(straight, forked) {
			t.Errorf("forked run diverged from straight-through:\nstraight: %+v\nforked:   %+v",
				straight, forked)
		}
	}
}

// TestForkIndependence forks one Warm twice in sequence and twice
// concurrently: every fork must equal the straight-through run, so no fork
// may write into the template or share mutable state with another fork. A
// slice or page shared between forks also fails this test under -race. bfs
// stores into memory during its measure phase, so shared pages show.
func TestForkIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	cfg := forkCfg(&mini)
	cfg.FrontEnd = FETrace
	w := recordedWorkload(t, mustWorkload(t, "bfs"), cfg)
	warm, err := WarmupSnapshot(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	forks := make([]*Result, 4)
	errs := make([]error, 4)
	for i := 0; i < 2; i++ {
		forks[i], errs[i] = RunFromWarmup(w, cfg, warm)
	}
	var wg sync.WaitGroup
	for i := 2; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forks[i], errs[i] = RunFromWarmup(w, cfg, warm)
		}(i)
	}
	wg.Wait()
	for i, res := range forks {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(straight, res) {
			t.Errorf("fork %d diverged from straight-through:\nstraight: %+v\nforked:   %+v", i, straight, res)
		}
	}
}

// TestRunFromWarmupRejectsMismatch exercises the runtime guard: a Warm must
// be refused when forked under a config whose warmup-tagged fields differ,
// or for a different workload.
func TestRunFromWarmupRejectsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	base := forkCfg(&mini)
	warm, err := WarmupSnapshot(mustWorkload(t, "mcf_17"), base)
	if err != nil {
		t.Fatal(err)
	}

	longer := base
	longer.Warmup = 25_000
	if _, err := RunFromWarmup(mustWorkload(t, "mcf_17"), longer, warm); err == nil ||
		!strings.Contains(err.Error(), "warmup key") {
		t.Errorf("differing Warmup accepted: err=%v", err)
	}

	core := base
	core.Core.ROBSize /= 2
	if _, err := RunFromWarmup(mustWorkload(t, "mcf_17"), core, warm); err == nil ||
		!strings.Contains(err.Error(), "warmup key") {
		t.Errorf("differing core config accepted: err=%v", err)
	}

	if _, err := RunFromWarmup(mustWorkload(t, "leela_17"), base, warm); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Errorf("wrong workload accepted: err=%v", err)
	}
}

// TestWarmupSharingPreconditions covers the shareable gate: sharing demands
// WarmupBarrier mode and no tracer, on both the save and restore sides.
func TestWarmupSharingPreconditions(t *testing.T) {
	mini := runahead.Mini()
	w := mustWorkload(t, "mcf_17")

	noBarrier := forkCfg(&mini)
	noBarrier.WarmupBarrier = false
	if _, err := WarmupSnapshot(w, noBarrier); err == nil ||
		!strings.Contains(err.Error(), "WarmupBarrier") {
		t.Errorf("WarmupSnapshot without barrier mode: err=%v", err)
	}
	if _, err := RunFromWarmup(w, noBarrier, nil); err == nil ||
		!strings.Contains(err.Error(), "WarmupBarrier") {
		t.Errorf("RunFromWarmup without barrier mode: err=%v", err)
	}

	traced := forkCfg(&mini)
	traced.Trace = trace.New()
	if _, err := WarmupSnapshot(w, traced); err == nil ||
		!strings.Contains(err.Error(), "tracing") {
		t.Errorf("WarmupSnapshot with tracer: err=%v", err)
	}
	if _, err := RunFromWarmup(w, traced, nil); err == nil ||
		!strings.Contains(err.Error(), "tracing") {
		t.Errorf("RunFromWarmup with tracer: err=%v", err)
	}
}

// TestCycleSkipInvisible runs the same configs with the dead-cycle skip
// disabled and requires bit-identical Results: skipping cycles in which
// nothing can happen must be a pure wall-clock optimization.
func TestCycleSkipInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	for _, br := range []*runahead.Config{nil, &mini} {
		cfg := DefaultConfig()
		cfg.Warmup = 20_000
		cfg.MaxInstrs = 40_000
		cfg.BR = br
		fast, err := Run(mustWorkload(t, "mcf_17"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow := cfg
		slow.Core.DisableCycleSkip = true
		ref, err := Run(mustWorkload(t, "mcf_17"), slow)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("cycle skip changed results (br=%v):\nskip: %+v\nref:  %+v", br != nil, fast, ref)
		}
	}
}
