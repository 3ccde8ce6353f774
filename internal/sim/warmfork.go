package sim

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/bpred"
	"repro/internal/brstate"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Warmup-snapshot forking. A warmup blob captures the machine at the
// warmup/measure boundary of a WarmupBarrier-mode run — before the Branch
// Runahead system attaches — so one warmup serves every measure config that
// agrees on the warmup partition of Config. Two guards keep sharing honest:
// statically, brlint's config-partition rule proves warmup-phase code never
// reads a `brphase:"measure"` field; dynamically, the blob carries the
// WarmupKey of the config that produced it and RunFromWarmup refuses a blob
// whose key differs from the restoring config's.
const warmupBlobVersion = 1

// WarmupKey returns a deterministic fingerprint of the warmup partition of
// cfg: every field tagged `brphase:"warmup"`, rendered field-by-field. Two
// configs with equal keys reach bit-identical warmup boundaries in
// WarmupBarrier mode and may share one warmup snapshot.
func WarmupKey(cfg Config) string {
	v := reflect.ValueOf(cfg)
	t := v.Type()
	var b strings.Builder
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("brphase") != "warmup" {
			continue
		}
		fv := v.Field(i)
		if tr, ok := fv.Interface().(*trace.Tracer); ok {
			// Only the enabled bit is warmup-visible: warmup code checks
			// Enabled() before emitting, never the sink's identity.
			fmt.Fprintf(&b, "%s=trace:%v;", f.Name, tr.Enabled())
			continue
		}
		switch fv.Kind() {
		case reflect.Ptr, reflect.Func, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface:
			// A reference-typed warmup field has no canonical value rendering;
			// adding one requires an explicit case above, not a silent %+v.
			panic(fmt.Sprintf("sim: WarmupKey cannot fingerprint warmup-tagged field %s (kind %s)",
				f.Name, fv.Kind()))
		}
		fmt.Fprintf(&b, "%s=%+v;", f.Name, fv.Interface())
	}
	return b.String()
}

// shareable reports whether cfg may participate in warmup-snapshot sharing.
func shareable(cfg Config) error {
	if !cfg.WarmupBarrier {
		return fmt.Errorf("sim: warmup sharing requires WarmupBarrier mode")
	}
	if cfg.Trace.Enabled() {
		// Forked runs would silently miss the warmup-phase trace events.
		return fmt.Errorf("sim: warmup sharing is incompatible with tracing")
	}
	return nil
}

// WarmupSnapshot drives w from reset to the warmup/measure boundary under
// cfg (which must be in WarmupBarrier mode) and returns the serialized
// boundary state. The blob restores under any config whose WarmupKey equals
// cfg's, regardless of its measure-only fields.
func WarmupSnapshot(w *workloads.Workload, cfg Config) ([]byte, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	saver, ok := m.bp.(brstate.Saver)
	if !ok {
		return nil, fmt.Errorf("sim: predictor %s does not support snapshots", m.bp.Name())
	}
	if err := m.warmup(); err != nil {
		return nil, err
	}
	wtr := brstate.NewWriter()
	wtr.Section("warmmeta", warmupBlobVersion, func(w *brstate.Writer) {
		w.String(m.w.Name)
		w.String(WarmupKey(m.cfg))
	})
	m.saveComponentSections(wtr, saver)
	return wtr.Bytes(), nil
}

// restoreWarmup builds a fresh machine under cfg and restores a
// WarmupSnapshot blob into it, applying both runtime guards (workload and
// warmup-key match) and the codec's sticky error checks. The blob is
// untrusted input — it came off disk — so every failure mode must surface
// here as an error, never a panic (FuzzWarmupBlob drives this path with
// mutated blobs).
func restoreWarmup(w *workloads.Workload, cfg Config, blob []byte) (*machine, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	loader, ok := m.bp.(brstate.Loader)
	if !ok {
		return nil, fmt.Errorf("sim: predictor %s does not support snapshots", m.bp.Name())
	}
	r, err := brstate.NewReader(blob)
	if err != nil {
		return nil, fmt.Errorf("sim %s: warmup blob: %w", w.Name, err)
	}
	var metaErr error
	r.Section("warmmeta", warmupBlobVersion, func(r *brstate.Reader) {
		wl := r.String()
		key := r.String()
		if r.Err() != nil {
			return
		}
		switch {
		case wl != m.w.Name:
			metaErr = fmt.Errorf("blob is for workload %q, not %q", wl, m.w.Name)
		case key != WarmupKey(m.cfg):
			metaErr = fmt.Errorf("blob warmup key %q does not match config key %q (a warmup-tagged field differs)",
				key, WarmupKey(m.cfg))
		}
	})
	if err = r.Err(); err == nil {
		err = metaErr
	}
	if err != nil {
		return nil, fmt.Errorf("sim %s: warmup blob: %w", w.Name, err)
	}
	l := &sectionLoader{r: r}
	m.loadComponentSections(l, loader)
	if l.err != nil {
		return nil, fmt.Errorf("sim %s: warmup blob: %w", w.Name, l.err)
	}
	return m, nil
}

// RunFromWarmup restores a WarmupSnapshot blob into a fresh machine and
// runs the measure phase under cfg, producing a Result bit-identical to a
// straight-through Run of the same config. The runtime guard re-derives the
// warmup key and refuses blobs from a config whose warmup-tagged fields
// differ.
func RunFromWarmup(w *workloads.Workload, cfg Config, blob []byte) (*Result, error) {
	m, err := restoreWarmup(w, cfg, blob)
	if err != nil {
		return nil, err
	}
	// The blob predates the boundary attach; install the runahead system now
	// and take the boundary snapshot exactly as Run does after its warmup.
	m.attachBR()
	boundary := snapshot(m.c, m.sys, m.hier)
	return m.measure(boundary)
}

// predictorStateVersion is the "bpred" section version for predictor kind k.
func predictorStateVersion(k PredictorKind) uint32 {
	switch k {
	case PredBimodal:
		return bpred.BimodalStateVersion
	case PredGshare:
		return bpred.GshareStateVersion
	case PredPerceptron:
		return bpred.PerceptronStateVersion
	case PredTournament:
		return bpred.TournamentStateVersion
	case PredLDBP:
		return bpred.LDBPStateVersion
	case PredBullseye:
		return bpred.BullseyeStateVersion
	default:
		return bpred.TAGESCLStateVersion
	}
}

// saveComponentSections writes one section per simulated component. The
// runahead system is not among them: warmup blobs are taken before it
// attaches.
func (m *machine) saveComponentSections(w *brstate.Writer, saver brstate.Saver) {
	w.Section("mem", emu.MemoryStateVersion, m.c.Memory().SaveState)
	w.Section("core", core.StateVersion, m.c.SaveState)
	w.Section("bpred", predictorStateVersion(m.cfg.Predictor), saver.SaveState)
	w.Section("l1i", cache.CacheStateVersion, m.hier.ICache.SaveState)
	w.Section("l1d", cache.CacheStateVersion, m.hier.DCache.SaveState)
	w.Section("l2", cache.CacheStateVersion, m.hier.L2.SaveState)
	if pf := m.hier.DCache.Prefetcher(); pf != nil {
		w.Section("pf", cache.PrefetcherStateVersion, pf.SaveState)
	}
	if m.hier.DTLB != nil {
		w.Section("dtlb", cache.TLBStateVersion, m.hier.DTLB.SaveState)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		w.Section("dram", dram.StateVersion, d.SaveState)
	}
}

// sectionLoader threads a sticky error through sequential section loads.
type sectionLoader struct {
	r   *brstate.Reader
	err error
}

func (l *sectionLoader) load(name string, version uint32, ld func(*brstate.Reader) error) {
	if l.err != nil {
		return
	}
	var inner error
	l.r.Section(name, version, func(r *brstate.Reader) { inner = ld(r) })
	if secErr := l.r.Err(); secErr != nil {
		l.err = secErr
	} else {
		l.err = inner
	}
	if l.err != nil {
		l.err = fmt.Errorf("sim: snapshot section %q: %w", name, l.err)
	}
}

// loadComponentSections restores the sections saveComponentSections wrote.
func (m *machine) loadComponentSections(l *sectionLoader, loader brstate.Loader) {
	l.load("mem", emu.MemoryStateVersion, m.c.Memory().LoadState)
	l.load("core", core.StateVersion, m.c.LoadState)
	l.load("bpred", predictorStateVersion(m.cfg.Predictor), loader.LoadState)
	l.load("l1i", cache.CacheStateVersion, m.hier.ICache.LoadState)
	l.load("l1d", cache.CacheStateVersion, m.hier.DCache.LoadState)
	l.load("l2", cache.CacheStateVersion, m.hier.L2.LoadState)
	if pf := m.hier.DCache.Prefetcher(); pf != nil {
		l.load("pf", cache.PrefetcherStateVersion, pf.LoadState)
	}
	if m.hier.DTLB != nil {
		l.load("dtlb", cache.TLBStateVersion, m.hier.DTLB.LoadState)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		l.load("dram", dram.StateVersion, d.LoadState)
	}
}
