package sim

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/bpred"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Warmup forking. A Warm holds the machine drained at the warmup/measure
// boundary of a WarmupBarrier-mode run — before the Branch Runahead system
// attaches — so one warmup serves every measure config that agrees on the
// warmup partition of Config. Two guards keep sharing honest: statically,
// brlint's config-partition rule proves warmup-phase code never reads a
// `brphase:"measure"` field; dynamically, a Warm carries the WarmupKey of
// the config that produced it and RunFromWarmup refuses a config whose key
// differs.

// WarmupKey returns a deterministic fingerprint of the warmup partition of
// cfg: every field tagged `brphase:"warmup"`, rendered field-by-field. Two
// configs with equal keys reach bit-identical warmup boundaries in
// WarmupBarrier mode and may share one Warm.
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

// shareable reports whether cfg may participate in warmup sharing.
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

// Warm is a machine drained at the warmup/measure boundary, the template
// RunFromWarmup forks. Forks only read it, so one Warm serves any number of
// forks, in sequence or concurrently; the template itself never runs again.
type Warm struct {
	m   *machine
	key string // WarmupKey of the config that produced m
}

// WarmupSnapshot drives w from reset to the warmup/measure boundary under
// cfg (which must be in WarmupBarrier mode) and returns the drained
// machine. It forks under any config whose WarmupKey equals cfg's,
// regardless of its measure-only fields.
func WarmupSnapshot(w *workloads.Workload, cfg Config) (*Warm, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.warmup(); err != nil {
		return nil, err
	}
	return &Warm{m: m, key: WarmupKey(cfg)}, nil
}

// RunFromWarmup forks warm into a fresh machine and runs the measure phase
// under cfg, producing a Result bit-identical to a straight-through Run of
// the same config. The runtime guard refuses a Warm of another workload or
// of a config whose warmup-tagged fields differ.
func RunFromWarmup(w *workloads.Workload, cfg Config, warm *Warm) (*Result, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	if name := warm.m.w.Name; name != w.Name {
		return nil, fmt.Errorf("sim %s: warmup is for workload %q", w.Name, name)
	}
	if key := WarmupKey(cfg); key != warm.key {
		return nil, fmt.Errorf("sim %s: warmup key %q does not match config key %q (a warmup-tagged field differs)",
			w.Name, warm.key, key)
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.copyFrom(warm.m); err != nil {
		return nil, err
	}
	// The template predates the boundary attach; install the runahead
	// system now and take the boundary snapshot exactly as Run does after
	// its warmup.
	m.attachBR()
	boundary := snapshot(m.c, m.sys, m.hier)
	return m.measure(boundary)
}

// copyFrom copies every simulated component's state from the drained src,
// built under the same warmup partition, into the freshly-built m. Fresh
// wiring plus a state copy leaves no pointer to re-wire. The runahead system
// is not among the components: the template is taken before it attaches.
func (m *machine) copyFrom(src *machine) error {
	if err := copyPredictor(m.bp, src.bp); err != nil {
		return err
	}
	m.c.Memory().CopyFrom(src.c.Memory())
	m.c.CopyFrom(src.c)
	m.hier.ICache.CopyFrom(src.hier.ICache)
	m.hier.DCache.CopyFrom(src.hier.DCache)
	m.hier.L2.CopyFrom(src.hier.L2)
	if m.hier.DTLB != nil {
		m.hier.DTLB.CopyFrom(src.hier.DTLB)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		d.CopyFrom(src.hier.Mem.(*dram.DRAM))
	}
	return nil
}

// copyPredictor copies src's state into dst. Equal warmup keys imply equal
// predictor kinds, so src has dst's concrete type.
func copyPredictor(dst, src bpred.Predictor) error {
	switch d := dst.(type) {
	case *bpred.TAGESCL:
		d.CopyFrom(src.(*bpred.TAGESCL))
	case *bpred.Bimodal:
		d.CopyFrom(src.(*bpred.Bimodal))
	case *bpred.Gshare:
		d.CopyFrom(src.(*bpred.Gshare))
	case *bpred.Perceptron:
		d.CopyFrom(src.(*bpred.Perceptron))
	case *bpred.Tournament:
		d.CopyFrom(src.(*bpred.Tournament))
	case *bpred.LDBP:
		d.CopyFrom(src.(*bpred.LDBP))
	case *bpred.Bullseye:
		d.CopyFrom(src.(*bpred.Bullseye))
	default:
		return fmt.Errorf("sim: predictor %s does not support warmup forking", dst.Name())
	}
	return nil
}
