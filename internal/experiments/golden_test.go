package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/btrace"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.txt from the current simulator")

const goldenPath = "testdata/golden_results.txt"

// goldenOptions is the budget of every golden point: small enough that the
// whole table simulates in a few seconds.
func goldenOptions() Options {
	o := QuickOptions()
	o.Scale = workloads.SmallScale()
	o.Warmup = 20_000
	o.Instrs = 60_000
	return o
}

// goldenPoint is one pinned simulation: a workload under a variant, either
// execution-driven or replayed from a trace recorded for its budget.
type goldenPoint struct {
	wl     string
	v      variant
	replay bool
}

func (p goldenPoint) key(instrs uint64) string {
	k := fmt.Sprintf("%s/%s/%d", p.wl, p.v.key, instrs)
	if p.replay {
		k += "/replay"
	}
	return k
}

func goldenPoints() []goldenPoint {
	var pts []goldenPoint
	for _, wl := range []string{"mcf_17", "leela_17", "bfs", "tc"} {
		pts = append(pts,
			goldenPoint{wl: wl, v: vTage64()},
			goldenPoint{wl: wl, v: vBR("mini", runahead.Mini())})
	}
	return append(pts,
		goldenPoint{wl: "leela_17", v: vBR("big", runahead.Big())},
		goldenPoint{wl: "tc", v: vBR("mini", runahead.Mini()), replay: true})
}

// runGolden simulates p and returns the SHA-256 of its run-cache entry:
// every field of the Result, in the codec's fixed order.
func runGolden(s *Suite, p goldenPoint) (string, error) {
	w, err := workloads.ByName(p.wl, s.opts.Scale)
	if err != nil {
		return "", err
	}
	cfg := s.simConfig(p.v, s.opts.Instrs)
	if p.replay {
		tr, err := btrace.Record(w.Prog, w.Name, btrace.StepsFor(cfg.Warmup, cfg.MaxInstrs))
		if err != nil {
			return "", err
		}
		w = &workloads.Workload{Name: w.Name, Suite: workloads.TraceSuite, Prog: tr.Prog, Trace: tr}
		cfg.FrontEnd = sim.FETrace
	}
	res, err := sim.Run(w, cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(encodeCacheEntry(p.key(s.opts.Instrs), res))
	return hex.EncodeToString(sum[:]), nil
}

// TestResultsMatchGolden pins the simulator's results bit for bit: each
// point's encoded run-cache entry must hash to the committed line. A change
// that is meant to leave the science alone (a refactor, a speedup, a
// storage change) must pass it unedited. A change that moves results on
// purpose regenerates the file with `go test ./internal/experiments -run
// TestResultsMatchGolden -update` and says why in its description.
func TestResultsMatchGolden(t *testing.T) {
	s := NewSuite(goldenOptions())
	pts := goldenPoints()
	got := make([]string, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i, p := range pts {
		wg.Add(1)
		go func(i int, p goldenPoint) {
			defer wg.Done()
			got[i], errs[i] = runGolden(s, p)
		}(i, p)
	}
	wg.Wait()
	var b strings.Builder
	for i, p := range pts {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.key(s.opts.Instrs), errs[i])
		}
		fmt.Fprintf(&b, "%s %s\n", p.key(s.opts.Instrs), got[i])
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, h, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = h
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(pts) {
		t.Errorf("%s has %d points, the test runs %d", goldenPath, len(want), len(pts))
	}
	for i, p := range pts {
		k := p.key(s.opts.Instrs)
		if want[k] != got[i] {
			t.Errorf("%s: result hash %s, golden %s", k, got[i], want[k])
		}
	}
}
