package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/bpred"
)

// tinyOptions run each pass's minimum: one simulation (two in the traced
// pass), one set-up, and a one-second serve window.
func tinyOptions(t *testing.T, trace bool) options {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	return options{seconds: time.Nanosecond, trace: trace, setups: 1, scratch: t.TempDir(), cal: cal}
}

func tinySim(t *testing.T, name string) simSpec {
	spec, ok := simWorkload(name)
	if !ok {
		t.Fatalf("no simulation workload %q", name)
	}
	spec.warmup, spec.instrs = 2_000, 4_000
	return spec
}

func tinyServe() serveSpec {
	spec := serveWorkload(3)
	warmup, instrs := uint64(500), uint64(1_000)
	spec.warmup, spec.instrs = &warmup, &instrs
	return spec
}

// runTiny runs one workload at a tiny budget.
func runTiny(t *testing.T, name string, trace bool) *report {
	t.Helper()
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep := newReport(defs)
	o := tinyOptions(t, trace)
	var err error
	if name == "serve-quick" {
		o.seconds = time.Second
		err = runServe(tinyServe(), o, rep)
	} else {
		err = runSim(tinySim(t, name), 3, o, rep)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep := runTiny(t, name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, d.name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, rep.attempted, rep.failed, rep.failures)
			}
		}
	}
}

func TestLayerSelfTimesSumToWall(t *testing.T) {
	for _, name := range []string{"mem-baseline", "br-replay"} {
		in, err := setupSim(tinySim(t, name), 3)
		if err != nil {
			t.Fatal(err)
		}
		p := newProfiler(in.frontName())
		_, timing, err := runOp(in, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.stack) != 0 {
			t.Fatalf("%s: %d spans left open", name, len(p.stack))
		}
		var sum time.Duration
		for _, d := range p.layerSelf() {
			sum += d
		}
		if off := math.Abs(float64(sum-timing.wall)) / float64(timing.wall); off > 0.05 {
			t.Errorf("%s: layer self times sum to %v, traced wall %v (%.1f%% off)", name, sum, timing.wall, 100*off)
		}
		for _, s := range []span{spanCore, spanFetch, spanBpred, spanL2} {
			if p.calls[s] == 0 {
				t.Errorf("%s: no %s calls timed", name, p.layerOf(s))
			}
		}
		if name == "br-replay" && p.calls[spanRATick] == 0 {
			t.Errorf("%s: no runahead ticks timed", name)
		}
	}
}

// invertEvery flips the direction of every nth prediction. Most predictions
// are made on the wrong path, where one flip can vanish without a trace, so
// a single flip is not a reliable perturbation.
type invertEvery struct {
	bpred.Predictor
	n, calls int
}

func (p *invertEvery) Predict(pc uint64) (bool, bpred.Info) {
	taken, info := p.Predictor.Predict(pc)
	p.calls++
	if p.calls%p.n == 0 {
		taken = !taken
	}
	return taken, info
}

func TestPerturbedRunIsReportedFailed(t *testing.T) {
	for _, trace := range []bool{false, true} {
		spec := tinySim(t, "mem-baseline")
		spec.newPred = func() bpred.Predictor { return &invertEvery{Predictor: bpred.NewTAGESCL64(), n: 100} }
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		rep := newReport(defs)
		if err := runSim(spec, 3, tinyOptions(t, trace), rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed == 0 {
			t.Errorf("trace=%v: a run with perturbed predictions passed every check", trace)
		}
	}
}

func TestCalibrationRingIsOneCycle(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	p := cal.ring[0]
	for n := 1; n < len(cal.ring); n++ {
		if p == 0 {
			t.Fatalf("the chase returns to its start after %d of %d steps", n, len(cal.ring))
		}
		p = cal.ring[p]
	}
	if p != 0 {
		t.Fatalf("the chase does not return to its start after %d steps", len(cal.ring))
	}
	cal.sample()
	cal.sampleParallel()
	for _, f := range []float64{cal.factor(), cal.parallelFactor()} {
		if !(f > 0) || math.IsInf(f, 0) {
			t.Errorf("calibration factor %v, want a positive number", f)
		}
	}
}
