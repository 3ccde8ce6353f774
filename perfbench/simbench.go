package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// runSim runs a simulation workload: timed set-up, then simulations until
// the window closes, then the output checks.
func runSim(spec simSpec, seed int64, o options, rep *report) error {
	seeds, err := instanceSeeds(spec, seed)
	if err != nil {
		return err
	}
	rep.inputs = fmt.Sprintf("%s scale seeds %v", spec.workload, seeds)
	var ins []*simInput
	var setups []float64
	o.cal.sample()
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		ins = nil
		for _, s := range seeds {
			in, err := setupSim(spec, s)
			if err != nil {
				return err
			}
			newMachine(in, nil)
			ins = append(ins, in)
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.cal.sample()
	}

	// same checks that every simulation of an input produced the outcome
	// of the input's first simulation.
	firsts := make([]*outcome, len(ins))
	same := func(k int, out outcome, err error) error {
		if err != nil {
			return err
		}
		if firsts[k] == nil {
			firsts[k] = &out
			return nil
		}
		if !reflect.DeepEqual(out, *firsts[k]) {
			return fmt.Errorf("%s seed %d: repeated simulation differs: %+v, first %+v",
				spec.workload, seeds[k], out, *firsts[k])
		}
		return nil
	}
	if o.trace {
		tot := tracedPass(ins, o, rep, same)
		// The model counters come from each input's first simulation, so
		// they repeat exactly for a seed however many ran in the window.
		var measured outcome
		for _, f := range firsts {
			if f != nil {
				measured = measured.add(*f)
			}
		}
		setLayerMetrics(rep, tot, measured)
	} else {
		untracedPass(ins, o, rep, same)
	}
	rep.set("setup_s", median(setups)*o.cal.factor())

	// sim.Run on the first input must agree with the benchmark's assembly.
	// Every input goes through the same wiring, so one input guards it.
	if firsts[0] != nil {
		ref, err := reference(ins[0])
		if err == nil && !reflect.DeepEqual(ref, firsts[0].simFields()) {
			err = fmt.Errorf("%s seed %d: benchmark assembly %+v differs from sim.Run %+v",
				spec.workload, seeds[0], firsts[0].simFields(), ref)
		}
		rep.op(err)
	}
	if !o.trace {
		// One traced simulation, outside the window, so the end-to-end
		// pass also guards the traced assembly.
		out, _, err := runOp(ins[0], newProfiler(ins[0].frontName()))
		rep.op(same(0, out, err))
	}
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	return nil
}

// untracedPass measures the end-to-end metrics, rotating through the inputs.
// On these workloads a warm request is one measured phase: simulating the
// measured budget on a machine the warmup phase has filled. The host's speed
// is sampled after every simulation (see calib.go).
func untracedPass(ins []*simInput, o options, rep *report, same func(int, outcome, error) error) {
	var colds, warmMs []float64
	var cpu, warm time.Duration
	var instrs uint64
	heap := watchHeap()
	deadline := time.Now().Add(o.seconds)
	for n := 0; n < len(ins) || time.Now().Before(deadline); n++ {
		k := n % len(ins)
		out, t, err := runOp(ins[k], nil)
		o.cal.sample()
		err = same(k, out, err)
		rep.op(err)
		if err != nil {
			continue
		}
		instrs += t.instrs
		cpu += t.cpu()
		colds = append(colds, t.cold.Seconds())
		warmMs = append(warmMs, t.warm.Seconds()*1e3)
		warm += t.warm
	}
	rep.set("live_heap_mb", heap.stopMB())
	f := o.cal.factor()
	rep.set("sim_minstr_per_s", ratio(float64(instrs), cpu.Seconds())/1e6/f)
	rep.set("cold_fill_s", mean(colds)*f)
	rep.set("warm_req_p50_ms", quantile(warmMs, 0.50)*f)
	rep.set("warm_req_p90_ms", quantile(warmMs, 0.90)*f)
	rep.set("warm_req_per_s", ratio(float64(len(warmMs)), warm.Seconds()*f))
}

// traced totals the traced simulations of a run: their profile, and the
// wall-clock time (the clock the spans use), micro-ops and cycles of the
// whole simulations, warmup included.
type traced struct {
	prof           *profiler
	wall           time.Duration
	instrs, cycles uint64
}

// tracedPass runs pairs of simulations of one input, untraced then traced,
// rotating through the inputs, so the tracing overhead compares runs made
// under the same host conditions. The layer times come from the traced ones.
func tracedPass(ins []*simInput, o options, rep *report, same func(int, outcome, error) error) traced {
	front := ins[0].frontName()
	tot := traced{prof: newProfiler(front)}
	var (
		tracedCPU, untracedCPU []float64
		use                    runtimeUse
		useInstrs              uint64
	)
	deadline := time.Now().Add(o.seconds)
	for n := 0; n < 2*len(ins) || time.Now().Before(deadline); n++ {
		k := (n / 2) % len(ins)
		if n%2 == 1 {
			p := newProfiler(front)
			out, t, err := runOp(ins[k], p)
			err = same(k, out, err)
			rep.op(err)
			if err != nil {
				continue
			}
			tot.prof.add(p)
			tracedCPU = append(tracedCPU, t.cpu().Seconds())
			tot.wall += t.wall
			tot.instrs += t.instrs
			tot.cycles += t.cycles
			continue
		}
		before := readRuntimeUse()
		out, t, err := runOp(ins[k], nil)
		use = use.add(readRuntimeUse().sub(before))
		err = same(k, out, err)
		rep.op(err)
		if err != nil {
			continue
		}
		useInstrs += t.instrs
		untracedCPU = append(untracedCPU, t.cpu().Seconds())
	}
	rep.set("runtime.alloc_bytes_per_instr", ratio(use.allocBytes, float64(useInstrs)))
	rep.set("runtime.allocs_per_kinstr", 1000*ratio(use.allocObjects, float64(useInstrs)))
	rep.set("runtime.gc_cpu_frac", ratio(use.gcCPU, use.usedCPU))
	if len(tracedCPU) > 0 && len(untracedCPU) > 0 {
		rep.set("trace_overhead_frac", median(tracedCPU)/median(untracedCPU)-1)
	}
	return tot
}

// setLayerMetrics derives the per-layer metrics of the simulation layers
// from the traced simulations' totals and the summed model counters of
// measured phases.
func setLayerMetrics(rep *report, tot traced, o outcome) {
	p, instrs, cycles := tot.prof, tot.instrs, tot.cycles
	self := p.layerSelf()
	frac := func(layer string) float64 { return ratio(float64(self[layer]), float64(tot.wall)) }
	ns := func(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	perKi := func(n uint64) float64 { return 1000 * ratio(float64(n), float64(o.Instrs)) }

	rep.set("core.self_frac", frac("core"))
	rep.set("core.ns_per_cycle", ns(self["core"], cycles))
	rep.set("core.fetched_per_retired", ratio(float64(o.Fetched), float64(o.Instrs)))
	rep.set("core.flushes_per_ki", perKi(o.Flushes))

	rep.set("runahead.self_frac", frac("runahead"))
	rep.set("runahead.tick_ns_per_cycle", ns(p.self[spanRATick], cycles))
	rep.set("runahead.retire_ns_per_instr", ns(p.self[spanRARetired], instrs))
	rep.set("runahead.dce_uops_per_ki", perKi(o.DCEUops))
	rep.set("runahead.syncs_per_ki", perKi(o.Syncs))
	used := o.Breakdown["correct"] + o.Breakdown["incorrect"]
	rep.set("runahead.useful_frac", ratio(float64(o.Breakdown["correct"]), float64(used)))

	rep.set(p.front+".self_frac", frac(p.front))
	rep.set(p.front+".ns_per_call", ns(p.self[spanFetch], p.calls[spanFetch]))
	rep.set("bpred.self_frac", frac("bpred"))
	rep.set("bpred.ns_per_call", ns(p.self[spanBpred], p.calls[spanBpred]))
	rep.set("cache.self_frac", frac("cache"))
	rep.set("cache.l2_ns_per_call", ns(p.self[spanL2], p.calls[spanL2]))
	rep.set("cache.l1d_miss_per_ki", perKi(o.L1DMisses))
	rep.set("cache.l2_miss_per_ki", perKi(o.L2Misses))
	rep.set("dram.self_frac", frac("dram"))
	rep.set("dram.ns_per_call", ns(p.self[spanDRAM], p.calls[spanDRAM]))
	rep.set("dram.accesses_per_ki", perKi(o.DRAMAccesses))
	rep.set("dram.row_hit_frac", ratio(float64(o.RowHits), float64(o.RowAccesses)))

	rep.set("model.ipc", ratio(float64(o.Instrs), float64(o.Cycles)))
	rep.set("model.mpki", perKi(o.Mispred))
}
