// Package sim wires a complete simulation: workload program, Table 1 core
// and memory hierarchy, a branch predictor, and optionally a Branch
// Runahead configuration. It produces the per-run metrics the experiment
// harness aggregates into the paper's tables and figures.
package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/btrace"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/energy"
	"repro/internal/program"
	"repro/internal/runahead"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// PredictorKind selects the baseline direction predictor.
type PredictorKind int

// Baseline predictors.
const (
	PredTage64 PredictorKind = iota // 64KB TAGE-SC-L (Table 1 baseline)
	PredTage80                      // 80KB TAGE-SC-L (Figure 10 iso-storage)
	PredMTage                       // MTAGE-SC, unlimited (Figure 11)
	PredBimodal
	PredGshare
	PredPerceptron // classical global-history perceptron (Jiménez & Lin)
	PredTournament // Alpha 21264-style local/global tournament
	PredLDBP       // Load Driven Branch Prediction over the TAGE-SC-L 64KB base
	PredBullseye   // H2P-targeted dual perceptron over the TAGE-SC-L 64KB base
)

// newPredictor builds the configured predictor. LDBP inspects the retired
// instruction stream, so it needs the workload program.
func newPredictor(k PredictorKind, prog *program.Program) bpred.Predictor {
	switch k {
	case PredTage64:
		return bpred.NewTAGESCL64()
	case PredTage80:
		return bpred.NewTAGESCL80()
	case PredMTage:
		return bpred.NewMTAGE()
	case PredBimodal:
		return bpred.NewBimodal(14)
	case PredGshare:
		return bpred.NewGshare(16, 14)
	case PredPerceptron:
		return bpred.NewPerceptron(bpred.DefaultPerceptronConfig())
	case PredTournament:
		return bpred.NewTournament(bpred.DefaultTournamentConfig())
	case PredLDBP:
		return bpred.NewLDBP(bpred.DefaultLDBPConfig(), bpred.NewTAGESCL64(), prog)
	case PredBullseye:
		return bpred.NewBullseye(bpred.DefaultBullseyeConfig(), bpred.NewTAGESCL64())
	default:
		panic(fmt.Sprintf("sim: unknown predictor kind %d", int(k)))
	}
}

// FrontEndKind selects the machine's instruction source (the core.InstrSource
// seam): execution-driven emulation of the workload program, or replay of a
// recorded branch/uop trace.
type FrontEndKind int

// Front-end kinds.
const (
	// FEAuto picks the trace replayer when the workload carries a recorded
	// trace and the execution-driven emulator otherwise. It is the zero value,
	// so pre-existing configurations keep their exact behaviour (and their
	// config names, cache addresses and warmup keys).
	FEAuto FrontEndKind = iota
	// FEExec forces execution-driven emulation of the workload program.
	FEExec
	// FETrace forces trace replay; the workload must carry a trace.
	FETrace
)

// newSource builds the instruction source the configured front-end kind
// selects for w.
func newSource(w *workloads.Workload, kind FrontEndKind) (core.InstrSource, error) {
	switch kind {
	case FEAuto:
		if w.Trace != nil {
			return btrace.NewSource(w.Trace), nil
		}
		return emu.NewSource(w.Prog), nil
	case FEExec:
		return emu.NewSource(w.Prog), nil
	case FETrace:
		if w.Trace == nil {
			return nil, fmt.Errorf("sim: FrontEnd=FETrace but workload %s carries no trace", w.Name)
		}
		return btrace.NewSource(w.Trace), nil
	default:
		return nil, fmt.Errorf("sim: unknown front-end kind %d", int(kind))
	}
}

// testWrapPredictor, when non-nil, wraps the predictor newMachine builds.
// It is a test-only seam (the release-audit predictor uses it to intercept
// every Checkpoint/Release and Predict/ReleaseInfo pair); production code
// never sets it.
var testWrapPredictor func(bpred.Predictor) bpred.Predictor

// Config describes one simulation.
//
// Every field carries a `brphase` struct tag partitioning the configuration
// into warmup-affecting ("warmup") and measure-only ("measure") fields,
// enforced by brlint's config-partition rule: warmup-phase code may never
// read a measure-only field, so two configs that differ only in measure-only
// fields reach a bit-identical warmup boundary — the static guarantee that
// makes sharing one warmup snapshot across Figure-13 sweep points safe.
type Config struct {
	Core      core.Config   `brphase:"warmup"`
	Predictor PredictorKind `brphase:"warmup"`
	// FrontEnd selects the instruction source; see FrontEndKind. The source
	// feeds warmup fetch, so it is warmup-affecting: runs may share a warmup
	// snapshot only when they agree on it (and, through the workload name,
	// on the trace content when replaying).
	FrontEnd FrontEndKind `brphase:"warmup"`
	// BR enables Branch Runahead when non-nil. It is measure-only under the
	// sharing contract: sharing is legal only in WarmupBarrier mode, where
	// the runahead system attaches at the drained warmup/measure boundary
	// and therefore cannot influence the warmup phase. In the
	// default mode the system attaches at reset and does shape warmup — but
	// default-mode runs never share a warmup snapshot (WarmupSnapshot and
	// RunFromWarmup refuse them), so the partition claim is never relied on
	// there.
	BR *runahead.Config `brphase:"measure"`
	// Warmup instructions excluded from the measured statistics.
	Warmup uint64 `brphase:"warmup"`
	// MaxInstrs is the measured instruction budget.
	MaxInstrs uint64 `brphase:"measure"`
	// Trace, when non-nil, receives structured events from every simulated
	// unit. Phase markers (warmup/measure/end) bracket the run so sinks can
	// reproduce the warmup-excluded statistics. (Tracing never changes
	// simulated state, but warmup code reads the field, so it is
	// warmup-affecting for snapshot-sharing purposes.)
	Trace *trace.Tracer `brphase:"warmup"`
	// WarmupBarrier, when set, ends the warmup phase by draining the
	// pipeline and defers attaching the Branch Runahead system to that
	// boundary instead of reset. This is the mode warmup-snapshot sharing
	// requires: with BR out of the warmup phase entirely, every config
	// agreeing on the warmup-tagged fields reaches a bit-identical
	// boundary, so one warmup serves N measure configs
	// (WarmupSnapshot / RunFromWarmup). A WarmupBarrier run is bit-identical
	// to a fork from its own warmup snapshot, but not to a default-mode run
	// of the same config — the boundary barrier and the deferred BR attach
	// are part of the configured semantics.
	WarmupBarrier bool `brphase:"warmup"`
}

// Validate checks the whole simulation configuration, including the nested
// core and Branch Runahead configurations.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.BR != nil {
		if err := c.BR.Validate(); err != nil {
			return err
		}
	}
	switch c.Predictor {
	case PredTage64, PredTage80, PredMTage, PredBimodal, PredGshare,
		PredPerceptron, PredTournament, PredLDBP, PredBullseye:
	default:
		return fmt.Errorf("sim: unknown predictor kind %d", int(c.Predictor))
	}
	switch c.FrontEnd {
	case FEAuto, FEExec, FETrace:
	default:
		return fmt.Errorf("sim: unknown front-end kind %d", int(c.FrontEnd))
	}
	if c.MaxInstrs == 0 {
		return fmt.Errorf("sim: MaxInstrs must be positive")
	}
	if c.Warmup+c.MaxInstrs < c.Warmup {
		return fmt.Errorf("sim: Warmup (%d) + MaxInstrs (%d) overflows the instruction budget",
			c.Warmup, c.MaxInstrs)
	}
	return nil
}

// DefaultConfig returns the Table 1 baseline with a sensible budget.
func DefaultConfig() Config {
	return Config{
		Core:      core.DefaultConfig(),
		Predictor: PredTage64,
		Warmup:    100_000,
		MaxInstrs: 1_000_000,
	}
}

// NewHierarchy builds the Table 1 memory system: 32KB L1I/L1D (2 ports,
// 3-cycle), 2MB 12-way L2 (18-cycle), stream prefetcher into the LLC, DDR4.
func NewHierarchy() core.Hierarchy {
	mem := dram.New(dram.DefaultConfig())
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 48}, mem)
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2)
	pf := cache.NewStreamPrefetcher(64, 16, 64, mem)
	dc.AttachPrefetcher(pf, l2)
	dtlb := cache.NewTLB(cache.DefaultTLBConfig(), l2)
	return core.Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: mem, DTLB: dtlb}
}

// BranchResult is one static branch's measured behaviour.
type BranchResult struct {
	PC      uint64
	Execs   uint64
	Mispred uint64
}

// Result holds the measured metrics of one run (warmup excluded).
type Result struct {
	Workload  string
	Config    string
	Cycles    uint64
	Instrs    uint64
	Branches  uint64
	Mispred   uint64
	IPC       float64
	MPKI      float64
	CoreUops  uint64 // issued by the core (includes wrong path)
	CoreLoads uint64

	// Branch Runahead metrics (zero-valued for baselines).
	DCEUops     uint64
	DCELoads    uint64
	Syncs       uint64
	Chains      uint64
	AvgChainLen float64
	AGFraction  float64
	MergeAcc    float64
	// MergeAccLayout is the prior-work layout heuristic's accuracy on the
	// same recoveries (paper §4.4's comparison).
	MergeAccLayout float64
	Breakdown      map[string]uint64
	// ChainDumps holds the final chain-cache contents, disassembled (for
	// the examples and debugging).
	ChainDumps []string

	// PerBranch is keyed by static branch PC.
	PerBranch map[uint64]BranchResult

	// Activity feeds the energy model.
	Activity energy.RunActivity
}

// machine bundles one wired simulation: workload, hierarchy, core and the
// optional runahead system. Run builds one and drives it from reset;
// RunFromWarmup builds one and copies a Warm template into it.
type machine struct {
	w    *workloads.Workload
	cfg  Config
	hier core.Hierarchy
	bp   bpred.Predictor
	c    *core.Core
	sys  *runahead.System
}

func newMachine(w *workloads.Workload, cfg Config) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim %s: %w", w.Name, err)
	}
	hier := NewHierarchy()
	bp := newPredictor(cfg.Predictor, w.Prog)
	if testWrapPredictor != nil {
		bp = testWrapPredictor(bp)
	}
	src, err := newSource(w, cfg.FrontEnd)
	if err != nil {
		return nil, err
	}
	c := core.NewWithSource(cfg.Core, src, bp, hier, nil)
	m := &machine{w: w, cfg: cfg, hier: hier, bp: bp, c: c}
	if !cfg.WarmupBarrier {
		// Default mode: the runahead system attaches at reset. In
		// WarmupBarrier mode attachBR installs it at the warmup/measure
		// boundary instead.
		m.attachBR()
	}
	if tr := cfg.Trace; tr.Enabled() {
		c.SetTrace(tr)
		hier.ICache.SetTracer(tr, trace.UnitL1I)
		hier.DCache.SetTracer(tr, trace.UnitL1D)
		hier.L2.SetTracer(tr, trace.UnitL2)
		if d, ok := hier.Mem.(*dram.DRAM); ok {
			d.SetTracer(tr)
		}
	}
	return m, nil
}

// attachBR builds and attaches the Branch Runahead system if the config asks
// for one and none is attached yet. It is safe at reset and at the drained
// warmup/measure boundary of WarmupBarrier mode: in both cases the pipeline
// is empty and the system starts from zero state.
func (m *machine) attachBR() {
	if m.cfg.BR == nil || m.sys != nil {
		return
	}
	sys := runahead.New(*m.cfg.BR, m.hier.DCache, m.c.Memory())
	sys.ShareTLB(m.hier.DTLB)
	m.c.SetExtension(sys)
	if tr := m.cfg.Trace; tr.Enabled() {
		sys.SetTracer(tr)
	}
	m.sys = sys
}

// Run executes one simulation and returns its measured result.
func Run(w *workloads.Workload, cfg Config) (*Result, error) {
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.warmup(); err != nil {
		return nil, err
	}
	// In WarmupBarrier mode the runahead system attaches here, at the
	// drained boundary; the boundary snapshot then sees it at zero state,
	// exactly as a run forked from a Warm does.
	m.attachBR()
	boundary := snapshot(m.c, m.sys, m.hier)
	if tr := cfg.Trace; tr.Enabled() {
		tr.Emit(trace.Event{Cycle: boundary.cycles, Kind: trace.KindPhase, Arg: trace.PhaseMeasure})
	}
	return m.measure(boundary)
}

// warmup drives the machine from reset to the warmup/measure boundary,
// draining the pipeline there in WarmupBarrier mode. Everything reachable
// from here (and not from the measure phase) is statically barred from
// reading measure-only Config fields by brlint's config-partition rule, so
// runs differing only in those fields share a bit-identical boundary.
//
//brlint:phase warmup
func (m *machine) warmup() error {
	if tr := m.cfg.Trace; tr.Enabled() {
		tr.Emit(trace.Event{Kind: trace.KindPhase, Arg: trace.PhaseWarmup})
	}
	if m.cfg.Warmup > 0 {
		if _, err := m.c.Run(m.cfg.Warmup); err != nil {
			return fmt.Errorf("sim %s: warmup: %w", m.w.Name, err)
		}
	}
	if m.cfg.WarmupBarrier {
		if err := m.c.Drain(); err != nil {
			return fmt.Errorf("sim %s: warmup barrier: %w", m.w.Name, err)
		}
	}
	return nil
}

// measure drives the measured phase from the warmup boundary to the
// instruction budget and computes the result.
//
//brlint:phase measure
func (m *machine) measure(boundary snap) (*Result, error) {
	if _, err := m.c.Run(boundary.retired + m.cfg.MaxInstrs); err != nil {
		return nil, fmt.Errorf("sim %s: %w", m.w.Name, err)
	}
	return m.finish(boundary), nil
}

// finish computes the measured result against the warmup-boundary snapshot.
func (m *machine) finish(boundary snap) *Result {
	c, sys := m.c, m.sys
	end := snapshot(c, sys, m.hier)
	if tr := m.cfg.Trace; tr.Enabled() {
		tr.Emit(trace.Event{Cycle: end.cycles, Kind: trace.KindPhase, Arg: trace.PhaseEnd})
	}

	res := &Result{
		Workload:  m.w.Name,
		Config:    configName(m.cfg),
		Cycles:    end.cycles - boundary.cycles,
		Instrs:    end.retired - boundary.retired,
		Branches:  end.branches - boundary.branches,
		Mispred:   end.mispred - boundary.mispred,
		CoreUops:  end.issued - boundary.issued,
		CoreLoads: end.issuedLoads - boundary.issuedLoads,
		PerBranch: make(map[uint64]BranchResult),
	}
	res.IPC = stats.Rate(res.Instrs, res.Cycles)
	res.MPKI = stats.PerKilo(res.Mispred, res.Instrs)
	// Keyed map construction is insensitive to iteration order; consumers
	// sort before rendering.
	for pc, bs := range c.Branches { //brlint:allow determinism
		prev := boundary.perBranch[pc]
		res.PerBranch[pc] = BranchResult{
			PC:      pc,
			Execs:   bs.Execs - prev.Execs,
			Mispred: bs.Mispred - prev.Mispred,
		}
	}

	res.Activity = energy.RunActivity{
		Cycles:       res.Cycles,
		CoreUops:     res.CoreUops,
		CoreLoads:    res.CoreLoads,
		L2Accesses:   (end.l2 - boundary.l2),
		DRAMAccesses: (end.dramR - boundary.dramR) + (end.dramW - boundary.dramW),
		Flushes:      end.flushes - boundary.flushes,
	}
	if sys != nil {
		res.DCEUops = sys.UopsIssued() - boundary.dceUops
		res.DCELoads = sys.LoadsIssued() - boundary.dceLoads
		res.Syncs = sys.Syncs() - boundary.syncs
		res.Chains = sys.C.Get("chains_installed")
		res.AvgChainLen = sys.AvgChainLen()
		res.AGFraction = sys.AGChainFraction()
		res.MergeAcc = sys.MergeAccuracy()
		res.MergeAccLayout = sys.LayoutMergeAccuracy()
		res.Breakdown = diffBreakdown(sys.PredictionBreakdown(), boundary.breakdown)
		for _, ch := range sys.Chains() {
			res.ChainDumps = append(res.ChainDumps, ch.String())
		}
		res.Activity.HasDCE = true
		res.Activity.DCEUops = res.DCEUops
		res.Activity.DCELoads = res.DCELoads
		res.Activity.Syncs = res.Syncs
	}
	return res
}

func configName(cfg Config) string {
	name := ""
	switch cfg.Predictor {
	case PredTage64:
		name = "tage64"
	case PredTage80:
		name = "tage80"
	case PredMTage:
		name = "mtage"
	case PredBimodal:
		name = "bimodal"
	case PredGshare:
		name = "gshare"
	case PredPerceptron:
		name = "perceptron"
	case PredTournament:
		name = "tournament"
	case PredLDBP:
		name = "ldbp"
	case PredBullseye:
		name = "bullseye"
	}
	if cfg.BR != nil {
		name += "+br-" + cfg.BR.Name
	}
	// FEAuto stays unnamed so pre-existing runs keep their exact config
	// strings; the workload name already distinguishes trace replays.
	switch cfg.FrontEnd {
	case FEExec:
		name += "+exec"
	case FETrace:
		name += "+replay"
	}
	return name
}

type snap struct {
	cycles, retired, branches, mispred uint64
	issued, issuedLoads, flushes       uint64
	l2, dramR, dramW                   uint64
	dceUops, dceLoads, syncs           uint64
	breakdown                          map[string]uint64
	perBranch                          map[uint64]BranchResult
}

func snapshot(c *core.Core, sys *runahead.System, hier core.Hierarchy) snap {
	// Reads go through the pre-registered dense handles, not the string API.
	s := snap{
		cycles:      c.Ctr.Cycles.Get(),
		retired:     c.Ctr.Retired.Get(),
		branches:    c.Ctr.RetiredCondBranches.Get(),
		mispred:     c.Ctr.Mispredicts.Get(),
		issued:      c.Ctr.Issued.Get(),
		issuedLoads: c.Ctr.IssuedLoads.Get(),
		flushes:     c.Ctr.Flushes.Get(),
		l2:          hier.L2.Ctr.Hits.Get() + hier.L2.Ctr.Misses.Get(),
		perBranch:   make(map[uint64]BranchResult),
	}
	if d, ok := hier.Mem.(*dram.DRAM); ok {
		s.dramR = d.Ctr.Reads.Get()
		s.dramW = d.Ctr.Writes.Get()
	}
	// Keyed map construction is insensitive to iteration order.
	for pc, bs := range c.Branches { //brlint:allow determinism
		s.perBranch[pc] = BranchResult{PC: pc, Execs: bs.Execs, Mispred: bs.Mispred}
	}
	if sys != nil {
		s.dceUops = sys.UopsIssued()
		s.dceLoads = sys.LoadsIssued()
		s.syncs = sys.Syncs()
		s.breakdown = sys.PredictionBreakdown()
	}
	return s
}

func diffBreakdown(end, start map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(end))
	// Keyed map construction is insensitive to iteration order.
	for k, v := range end { //brlint:allow determinism
		out[k] = v - start[k]
	}
	return out
}
