package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bpred"
	"repro/internal/btrace"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simSpec defines one simulation workload.
type simSpec struct {
	workload string
	scale    workloads.Scale
	br       func() runahead.Config // nil: no Branch Runahead
	replay   bool                   // drive the core from a recorded btrace
	warmup   uint64
	instrs   uint64
	// instances is how many generated inputs a run rotates through, so a
	// run's figures average over inputs instead of hanging on one.
	instances int
	// minColdPerKi, when positive, is the memory behaviour that defines
	// the workload: an input whose measured phase loads fewer cold lines
	// per thousand micro-ops is not used (see instanceSeeds).
	minColdPerKi float64
	// newPred builds the machine's direction predictor. It must be the
	// predictor sim.Run builds for PredTage64; the output check compares
	// against that run, so anything else is reported as a failure.
	newPred func() bpred.Predictor
}

// simInput is one generated input after set-up: the program and, for the
// replay workload, its recorded trace.
type simInput struct {
	spec simSpec
	w    *workloads.Workload
}

// instanceSeeds derives spec.instances scale seeds from the run's seed:
// the seed itself, then steps of a large stride. A candidate whose input
// lacks the workload's defining memory behaviour is skipped. For mcf_06 that
// happens when the random pointer cycle through node 0 is too short to
// leave the caches; about one seed in six.
func instanceSeeds(spec simSpec, seed int64) ([]int64, error) {
	const stride, tries = 1_000_003, 64
	var seeds []int64
	for k := int64(0); len(seeds) < spec.instances; k++ {
		if k == tries {
			return nil, fmt.Errorf("%s: no input among %d candidates loads %.0f cold lines per ki",
				spec.workload, tries, spec.minColdPerKi)
		}
		cand := seed + k*stride
		if spec.minColdPerKi > 0 {
			sc := spec.scale
			sc.Seed = cand
			w, err := workloads.ByName(spec.workload, sc)
			if err != nil {
				return nil, err
			}
			cold, err := coldLinesPerKi(w, spec.warmup, spec.instrs)
			if err != nil {
				return nil, err
			}
			if cold < spec.minColdPerKi {
				continue
			}
		}
		seeds = append(seeds, cand)
	}
	return seeds, nil
}

// setupSim builds one input: the workload generated at the given scale
// seed and, for the replay workload, the trace recorded from it.
func setupSim(spec simSpec, seed int64) (*simInput, error) {
	spec.scale.Seed = seed
	w, err := workloads.ByName(spec.workload, spec.scale)
	if err != nil {
		return nil, err
	}
	if spec.replay {
		tr, err := btrace.Record(w.Prog, w.Name, btrace.StepsFor(spec.warmup, spec.instrs))
		if err != nil {
			return nil, err
		}
		w = &workloads.Workload{Name: w.Name, Suite: w.Suite, Prog: w.Prog, About: w.About, Trace: tr}
	}
	return &simInput{spec: spec, w: w}, nil
}

// coldLinesPerKi functionally executes w for warmup+instrs micro-ops and
// returns how many 64-byte lines per thousand measured-phase micro-ops are
// loaded for the first time: the compulsory misses of the measured phase,
// which no cache size can avoid.
func coldLinesPerKi(w *workloads.Workload, warmup, instrs uint64) (float64, error) {
	r := emu.NewRunner(w.Prog)
	seen := make(map[uint64]struct{})
	var cold uint64
	for r.Steps < warmup+instrs {
		res, err := r.StepOne()
		if err != nil {
			return 0, err
		}
		if res.IsLoad {
			line := res.MemAddr >> 6
			if _, ok := seen[line]; !ok {
				seen[line] = struct{}{}
				if r.Steps > warmup {
					cold++
				}
			}
		}
		if res.Halted {
			break
		}
	}
	return 1000 * float64(cold) / float64(instrs), nil
}

// frontName is the layer the machine's instruction source belongs to.
func (in *simInput) frontName() string {
	if in.spec.replay {
		return "btrace"
	}
	return "emu"
}

// machine is the benchmark's own assembly of the simulated machine, built
// from the packages' public constructors with the same wiring as
// sim.NewHierarchy and sim.Run. With a profiler, a timing decorator sits at
// each seam the core exposes: the instruction source, the predictor, the
// memory levels below L1 and under L2, and the runahead extension.
type machine struct {
	c    *core.Core
	hier core.Hierarchy
	mem  *dram.DRAM
	sys  *runahead.System
}

func newMachine(in *simInput, prof *profiler) *machine {
	mem := dram.New(dram.DefaultConfig())
	var below cache.MemLevel = mem
	if prof != nil {
		below = &timedMem{next: mem, p: prof, s: spanDRAM}
	}
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 48}, below)
	var l2Level cache.MemLevel = l2
	if prof != nil {
		l2Level = &timedMem{next: l2, p: prof, s: spanL2}
	}
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2Level)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2Level)
	pf := cache.NewStreamPrefetcher(64, 16, 64, below)
	dc.AttachPrefetcher(pf, l2)
	dtlb := cache.NewTLB(cache.DefaultTLBConfig(), l2Level)
	hier := core.Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: below, DTLB: dtlb}

	var src core.InstrSource
	if in.spec.replay {
		src = btrace.NewSource(in.w.Trace)
	} else {
		src = emu.NewSource(in.w.Prog)
	}
	bp := in.spec.newPred()
	if prof != nil {
		src = &timedSource{InstrSource: src, p: prof}
		bp = &timedPredictor{Predictor: bp, p: prof}
	}
	m := &machine{hier: hier, mem: mem}
	m.c = core.NewWithSource(core.DefaultConfig(), src, bp, hier, nil)
	if in.spec.br != nil {
		m.sys = runahead.New(in.spec.br(), dc, m.c.Memory())
		m.sys.ShareTLB(dtlb)
		var ext core.Extension = m.sys
		if prof != nil {
			ext = &timedExtension{Extension: m.sys, p: prof}
		}
		m.c.SetExtension(ext)
	}
	return m
}

// counts reads the machine's model counters.
type counts struct {
	cycles, retired, branches, mispred    uint64
	issued, issuedLoads, flushes, fetched uint64
	l1dMiss, l2Acc, l2Miss                uint64
	dramR, dramW, rowHits, rowAll         uint64
	dceUops, dceLoads, syncs              uint64
	breakdown                             map[string]uint64
}

func (m *machine) counts() counts {
	c := m.c.Ctr
	l2 := m.hier.L2.Ctr
	d := m.mem.Ctr
	k := counts{
		cycles: c.Cycles.Get(), retired: c.Retired.Get(),
		branches: c.RetiredCondBranches.Get(), mispred: c.Mispredicts.Get(),
		issued: c.Issued.Get(), issuedLoads: c.IssuedLoads.Get(),
		flushes: c.Flushes.Get(), fetched: c.Fetched.Get(),
		l1dMiss: m.hier.DCache.Ctr.Misses.Get(),
		l2Acc:   l2.Hits.Get() + l2.Misses.Get(), l2Miss: l2.Misses.Get(),
		dramR: d.Reads.Get(), dramW: d.Writes.Get(),
		rowHits: d.RowHits.Get(),
		rowAll:  d.RowHits.Get() + d.RowMisses.Get() + d.RowConflicts.Get(),
	}
	if m.sys != nil {
		k.dceUops = m.sys.UopsIssued()
		k.dceLoads = m.sys.LoadsIssued()
		k.syncs = m.sys.Syncs()
		k.breakdown = m.sys.PredictionBreakdown()
	}
	return k
}

// outcome is what one simulation produced over its measured phase. The
// first group of fields is also in sim.Result, so the output check can
// compare the benchmark's assembly against sim.Run; the rest are model
// counters only the per-layer metrics use.
type outcome struct {
	Cycles, Instrs, Branches, Mispred uint64
	CoreUops, CoreLoads, Flushes      uint64
	L2Accesses, DRAMAccesses          uint64
	DCEUops, DCELoads, Syncs          uint64
	Breakdown                         map[string]uint64

	Fetched, L1DMisses, L2Misses, RowHits, RowAccesses uint64
}

func diff(end, start counts) outcome {
	o := outcome{
		Cycles: end.cycles - start.cycles, Instrs: end.retired - start.retired,
		Branches: end.branches - start.branches, Mispred: end.mispred - start.mispred,
		CoreUops: end.issued - start.issued, CoreLoads: end.issuedLoads - start.issuedLoads,
		Flushes:      end.flushes - start.flushes,
		L2Accesses:   end.l2Acc - start.l2Acc,
		DRAMAccesses: (end.dramR - start.dramR) + (end.dramW - start.dramW),
		DCEUops:      end.dceUops - start.dceUops, DCELoads: end.dceLoads - start.dceLoads,
		Syncs:     end.syncs - start.syncs,
		Fetched:   end.fetched - start.fetched,
		L1DMisses: end.l1dMiss - start.l1dMiss, L2Misses: end.l2Miss - start.l2Miss,
		RowHits: end.rowHits - start.rowHits, RowAccesses: end.rowAll - start.rowAll,
	}
	if end.breakdown != nil {
		o.Breakdown = make(map[string]uint64, len(end.breakdown))
		for k, v := range end.breakdown {
			o.Breakdown[k] = v - start.breakdown[k]
		}
	}
	return o
}

// simFields keeps only the fields sim.Result also reports.
func (o outcome) simFields() outcome {
	return outcome{
		Cycles: o.Cycles, Instrs: o.Instrs, Branches: o.Branches, Mispred: o.Mispred,
		CoreUops: o.CoreUops, CoreLoads: o.CoreLoads, Flushes: o.Flushes,
		L2Accesses: o.L2Accesses, DRAMAccesses: o.DRAMAccesses,
		DCEUops: o.DCEUops, DCELoads: o.DCELoads, Syncs: o.Syncs, Breakdown: o.Breakdown,
	}
}

// add sums two outcomes field by field.
func (o outcome) add(p outcome) outcome {
	sum := outcome{
		Cycles: o.Cycles + p.Cycles, Instrs: o.Instrs + p.Instrs,
		Branches: o.Branches + p.Branches, Mispred: o.Mispred + p.Mispred,
		CoreUops: o.CoreUops + p.CoreUops, CoreLoads: o.CoreLoads + p.CoreLoads,
		Flushes: o.Flushes + p.Flushes, L2Accesses: o.L2Accesses + p.L2Accesses,
		DRAMAccesses: o.DRAMAccesses + p.DRAMAccesses,
		DCEUops:      o.DCEUops + p.DCEUops, DCELoads: o.DCELoads + p.DCELoads, Syncs: o.Syncs + p.Syncs,
		Fetched: o.Fetched + p.Fetched, L1DMisses: o.L1DMisses + p.L1DMisses,
		L2Misses: o.L2Misses + p.L2Misses, RowHits: o.RowHits + p.RowHits, RowAccesses: o.RowAccesses + p.RowAccesses,
	}
	for _, b := range []map[string]uint64{o.Breakdown, p.Breakdown} {
		for k, v := range b {
			if sum.Breakdown == nil {
				sum.Breakdown = map[string]uint64{}
			}
			sum.Breakdown[k] += v
		}
	}
	return sum
}

// fromSimResult maps a sim.Result onto the shared outcome fields.
func fromSimResult(r *sim.Result) outcome {
	return outcome{
		Cycles: r.Cycles, Instrs: r.Instrs, Branches: r.Branches, Mispred: r.Mispred,
		CoreUops: r.CoreUops, CoreLoads: r.CoreLoads, Flushes: r.Activity.Flushes,
		L2Accesses: r.Activity.L2Accesses, DRAMAccesses: r.Activity.DRAMAccesses,
		DCEUops: r.DCEUops, DCELoads: r.DCELoads, Syncs: r.Syncs, Breakdown: r.Breakdown,
	}
}

// reference runs the same simulation through the public sim.Run path.
func reference(in *simInput) (outcome, error) {
	cfg := sim.Config{
		Core:      core.DefaultConfig(),
		Predictor: sim.PredTage64,
		Warmup:    in.spec.warmup,
		MaxInstrs: in.spec.instrs,
	}
	if in.spec.replay {
		cfg.FrontEnd = sim.FETrace
	}
	if in.spec.br != nil {
		br := in.spec.br()
		cfg.BR = &br
	}
	r, err := sim.Run(in.w, cfg)
	if err != nil {
		return outcome{}, err
	}
	return fromSimResult(r), nil
}

// opTiming is the host time one simulation took: its phases in CPU time of
// the simulating thread, and the whole run also in wall-clock time, the
// clock the layer spans use.
type opTiming struct {
	cold, warm time.Duration // warmup phase, measured phase
	wall       time.Duration // the whole simulation
	// instrs and cycles count the whole simulation, warmup included.
	instrs, cycles uint64
}

// cpu is the CPU time of the whole simulation.
func (t opTiming) cpu() time.Duration { return t.cold + t.warm }

// runOp builds a fresh machine and simulates the warmup phase, then the
// measured phase.
func runOp(in *simInput, prof *profiler) (outcome, opTiming, error) {
	m := newMachine(in, prof)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var t opTiming
	if prof != nil {
		prof.enter(spanCore)
		defer prof.exit()
	}
	w0, c0 := time.Now(), threadCPU()
	if _, err := m.c.Run(in.spec.warmup); err != nil {
		return outcome{}, t, fmt.Errorf("warmup: %w", err)
	}
	c1 := threadCPU()
	start := m.counts()
	if _, err := m.c.Run(start.retired + in.spec.instrs); err != nil {
		return outcome{}, t, err
	}
	t.cold, t.warm = c1-c0, threadCPU()-c1
	t.wall = time.Since(w0)
	last := m.counts()
	t.instrs, t.cycles = last.retired, last.cycles
	return diff(last, start), t, nil
}
