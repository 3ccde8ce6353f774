// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock window and prints every metric by name and
// unit, then one JSON result line. With -trace 0 it reports the end-to-end
// metrics of an untraced pass; with -trace 1 it reports the per-layer
// metrics of a traced pass, where timing decorators sit at the seams the
// simulator exposes. Every output is checked; a failed check is counted in
// the result's "failed" field and clears "correct".
//
// Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload mem-baseline --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each one measures.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bpred"
	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/workloads"
)

// heldOutSeed is the seed kept out of tuning: a later change that claims a
// gain must also show it on this seed.
const heldOutSeed = 1009

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json names, in the same
// order; every workload reports all of them (a layer a workload does not
// load reports 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"live_heap_mb", "MB"},
	{"ok_frac", "frac"},
	{"cold_fill_s", "s"},
	{"warm_req_p50_ms", "ms"},
	{"warm_req_p90_ms", "ms"},
	{"warm_req_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"core.self_frac", "frac"},
	{"core.ns_per_cycle", "ns"},
	{"core.fetched_per_retired", "ratio"},
	{"core.flushes_per_ki", "1/ki"},
	{"runahead.self_frac", "frac"},
	{"runahead.tick_ns_per_cycle", "ns"},
	{"runahead.retire_ns_per_instr", "ns"},
	{"runahead.dce_uops_per_ki", "1/ki"},
	{"runahead.syncs_per_ki", "1/ki"},
	{"runahead.useful_frac", "frac"},
	{"emu.self_frac", "frac"},
	{"emu.ns_per_call", "ns"},
	{"btrace.self_frac", "frac"},
	{"btrace.ns_per_call", "ns"},
	{"bpred.self_frac", "frac"},
	{"bpred.ns_per_call", "ns"},
	{"cache.self_frac", "frac"},
	{"cache.l2_ns_per_call", "ns"},
	{"cache.l1d_miss_per_ki", "1/ki"},
	{"cache.l2_miss_per_ki", "1/ki"},
	{"dram.self_frac", "frac"},
	{"dram.ns_per_call", "ns"},
	{"dram.accesses_per_ki", "1/ki"},
	{"dram.row_hit_frac", "frac"},
	{"runtime.alloc_bytes_per_instr", "B"},
	{"runtime.allocs_per_kinstr", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"experiments.cold_s_per_sim", "s"},
	{"experiments.sims_executed", "count"},
	{"experiments.warm_point_us", "us"},
	{"server.self_ms_per_req", "ms"},
	{"server.polls_per_req", "count"},
	{"server.jobs_registered", "count"},
	{"model.ipc", "ratio"},
	{"model.mpki", "1/ki"},
	{"trace_overhead_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and operation outcomes.
type report struct {
	inputs    string // the generated inputs, for reproducing the run
	calib     string // the host-speed calibration, for reading the scaled times
	units     map[string]string
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

// newReport starts a report holding every metric of defs at 0.
func newReport(defs []metricDef) *report {
	r := &report{units: map[string]string{}, metrics: map[string]metric{}}
	for _, d := range defs {
		r.units[d.name] = d.unit
		r.metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a metric. Metrics of the other pass are ignored, so each
// workload can compute both sets and the pass picks what it prints.
func (r *report) set(name string, v float64) {
	if unit, ok := r.units[name]; ok {
		r.metrics[name] = metric{Value: v, Unit: unit}
	} else if !known(name) {
		panic("perfbench: unknown metric " + name)
	}
}

func known(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// options are the run-wide settings shared by every workload.
type options struct {
	seconds time.Duration
	trace   bool
	setups  int    // how many times set-up is repeated and timed
	scratch string // directory for run-cache directories
	cal     *calibrator
}

// simWorkload returns the spec of a simulation workload.
func simWorkload(name string) (simSpec, bool) {
	tage := func() bpred.Predictor { return bpred.NewTAGESCL64() }
	switch name {
	case "mem-baseline":
		return simSpec{workload: "mcf_06", scale: workloads.DefaultScale(), warmup: 50_000, instrs: 150_000,
			instances: 8, minColdPerKi: 20, newPred: tage}, true
	case "br-replay":
		return simSpec{workload: "tc", scale: workloads.SmallScale(), br: runahead.Mini, replay: true,
			warmup: 50_000, instrs: 150_000, instances: 8, newPred: tage}, true
	}
	return simSpec{}, false
}

// serveWorkload returns the spec of the service workload at a seed.
func serveWorkload(seed int64) serveSpec {
	return serveSpec{
		figure:    "10",
		workloads: experiments.QuickOptions().Workloads,
		coldFills: 3,
		seed:      seed,
	}
}

var workloadNames = []string{"mem-baseline", "br-replay", "serve-quick"}

// run executes one workload and returns its report.
func run(name string, seed int64, o options) (*report, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := newReport(defs)
	if spec, ok := simWorkload(name); ok {
		return rep, runSim(spec, seed, o, rep)
	}
	if name == "serve-quick" {
		return rep, runServe(serveWorkload(seed), o, rep)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// stamp records the host and run facts a result was measured under.
type stamp struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	HeldOutSeed  int64  `json:"held_out_seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even where no git metadata exists.
// Hidden directories (VCS metadata, build outputs) are skipped.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		secs     = flag.Int("seconds", 20, "host seconds one run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		commit   = flag.String("commit", "", "commit being measured (empty: unknown)")
		scratch  = flag.String("scratch", ".bench_build", "directory for temporary run caches, inside the checkout")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *secs, *traced, *root, *commit, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, secs, traced int, root, commit, scratch string) error {
	if secs < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if traced != 0 && traced != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if err := checkClocks(); err != nil {
		return err
	}
	digest, err := sourceDigest(root)
	if err != nil {
		return fmt.Errorf("source digest: %w", err)
	}
	if commit == "" {
		commit = "unknown"
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	o := options{seconds: time.Duration(secs) * time.Second, trace: traced == 1, setups: 9, scratch: scratch, cal: cal}
	rep, err := run(workload, seed, o)
	if err != nil {
		return err
	}
	rep.calib = fmt.Sprintf("reference burst %.4g ms; median burst %.4g ms over %d bursts: times are scaled by about %.4g",
		calRef.Seconds()*1e3, o.cal.medianBurstMs(), len(o.cal.bursts), o.cal.factor())
	if len(o.cal.parBursts) > 0 {
		rep.calib += fmt.Sprintf("; on every CPU at once, median burst %.4g ms over %d bursts: scaled by about %.4g",
			median(o.cal.parBursts), len(o.cal.parBursts), o.cal.parallelFactor())
	}
	st := stamp{
		Workload: workload, Seed: seed, HeldOutSeed: heldOutSeed, Seconds: secs, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit, SourceSHA256: digest,
	}
	return printReport(os.Stdout, st, rep)
}

func printReport(w *os.File, st stamp, rep *report) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", b)
	if rep.inputs != "" {
		fmt.Fprintf(w, "inputs %s\n", rep.inputs)
	}
	if rep.calib != "" {
		fmt.Fprintf(w, "calibration %s\n", rep.calib)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "failed %s\n", f)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", rep.attempted, rep.failed)
	b, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
