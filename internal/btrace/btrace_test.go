package btrace_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/btrace"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/program"
)

func testHierarchy() core.Hierarchy {
	mem := dram.New(dram.DefaultConfig())
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 32}, mem)
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2)
	return core.Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: mem}
}

// histogramProgram loads n pseudo-random bytes, bins them with a
// data-dependent branch and read-modify-write histogram stores — loads,
// in-flight store forwarding, hard branches and an easy loop-back branch
// all on the correct path, plus real wrong paths behind the mispredicts.
func histogramProgram(n int, seed int64) *program.Program {
	const (
		base     = uint64(0x10000)
		histBase = uint64(0x90000)
	)
	r := rand.New(rand.NewSource(seed))
	vals := make([]byte, n)
	r.Read(vals)
	b := program.NewBuilder("histogram")
	b.Data(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R3, 0). // i
		MovI(isa.R5, int64(n)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 1, 0, 1, false).
		CmpI(isa.R2, 128).
		Br(isa.CondGE, "high"). // data-dependent branch
		MovI(isa.R6, 0).
		Jmp("bin")
	b.Label("high").
		MovI(isa.R6, 8)
	b.Label("bin").
		Ld(isa.R7, isa.R6, int64(histBase), 8, false).
		AddI(isa.R7, isa.R7, 1).
		St(isa.R7, isa.R6, int64(histBase), 8).
		AddI(isa.R3, isa.R3, 1).
		Cmp(isa.R3, isa.R5).
		Br(isa.CondLT, "loop").
		Halt()
	return b.MustBuild()
}

func mustRecord(t *testing.T, p *program.Program, steps uint64) *btrace.Trace {
	t.Helper()
	tr, err := btrace.Record(p, "", steps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRoundTrip(t *testing.T) {
	tr := mustRecord(t, histogramProgram(512, 3), 1_000_000)
	enc := tr.Encode()
	got, err := btrace.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Prog.Entry != tr.Prog.Entry {
		t.Fatalf("meta mismatch: %q/%d vs %q/%d", got.Name, got.Prog.Entry, tr.Name, tr.Prog.Entry)
	}
	if !reflect.DeepEqual(got.Prog.Uops, tr.Prog.Uops) {
		t.Fatal("static image did not round-trip")
	}
	if !reflect.DeepEqual(got.Prog.Data, tr.Prog.Data) {
		t.Fatal("data segments did not round-trip")
	}
	if !reflect.DeepEqual(got.Recs, tr.Recs) {
		t.Fatal("record stream did not round-trip")
	}
	if got.Fingerprint != btrace.Fingerprint(enc) || got.Fingerprint == "" {
		t.Fatalf("fingerprint %q not derived from the encoded bytes", got.Fingerprint)
	}
	// Re-encoding a decoded trace must be byte-stable (content addressing).
	if string(got.Encode()) != string(enc) {
		t.Fatal("re-encoded bytes differ")
	}
}

func TestDecodeRejectsInconsistentTraces(t *testing.T) {
	base := mustRecord(t, histogramProgram(64, 5), 10_000)
	cases := []struct {
		name   string
		mutate func(tr *btrace.Trace)
	}{
		{"taken bit on a non-branch", func(tr *btrace.Trace) {
			for i := range tr.Recs {
				if tr.Prog.Uops[tr.Recs[i].PC].Op == isa.OpAdd {
					tr.Recs[i].Bits |= 1 // bTaken
					return
				}
			}
			t.Fatal("no add record to mutate")
		}},
		{"record pc outside image", func(tr *btrace.Trace) {
			tr.Recs[0].PC = uint32(len(tr.Prog.Uops))
			tr.Recs[0].Bits = 0
		}},
		{"condition codes out of range", func(tr *btrace.Trace) {
			for i := range tr.Recs {
				if tr.Prog.Uops[tr.Recs[i].PC].Op == isa.OpCmp {
					tr.Recs[i].Flags = 9
					return
				}
			}
			t.Fatal("no cmp record to mutate")
		}},
		{"branch target outside image", func(tr *btrace.Trace) {
			for i := range tr.Prog.Uops {
				if tr.Prog.Uops[i].Op == isa.OpBr {
					tr.Prog.Uops[i].Imm = int64(len(tr.Prog.Uops)) + 7
					return
				}
			}
			t.Fatal("no branch to mutate")
		}},
		{"entry outside image", func(tr *btrace.Trace) {
			tr.Prog.Entry = uint64(len(tr.Prog.Uops))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := base.Encode()
			tr, err := btrace.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			// Mutate a private copy and re-encode; the program image is
			// shared, so deep-copy it first.
			uops := append([]isa.Uop(nil), tr.Prog.Uops...)
			tr.Prog = &program.Program{Name: tr.Prog.Name, Uops: uops,
				Data: tr.Prog.Data, Entry: tr.Prog.Entry}
			tc.mutate(tr)
			if _, err := btrace.Decode(tr.Encode()); err == nil {
				t.Fatal("decode accepted an inconsistent trace")
			}
		})
	}
}

// runCore drives a core to halt and returns its rendered counters plus
// per-branch stats, the equality basis for replay conformance.
func runCore(t *testing.T, c *core.Core) (string, map[uint64]core.BranchStat, uint64) {
	t.Helper()
	if _, err := c.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	branches := make(map[uint64]core.BranchStat, len(c.Branches))
	for pc, bs := range c.Branches {
		branches[pc] = *bs
	}
	return c.C.String(), branches, c.Now()
}

func TestReplayMatchesExecution(t *testing.T) {
	p := histogramProgram(4096, 42)
	tr := mustRecord(t, p, 1_000_000)

	exec := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	ctrE, brE, nowE := runCore(t, exec)

	replay := core.NewWithSource(core.DefaultConfig(), btrace.NewSource(tr),
		bpred.NewTAGESCL64(), testHierarchy(), nil)
	ctrR, brR, nowR := runCore(t, replay)

	if nowE != nowR {
		t.Fatalf("cycle count diverged: executed %d, replayed %d", nowE, nowR)
	}
	if ctrE != ctrR {
		t.Fatal("counters diverged between executed and replayed runs")
	}
	if !reflect.DeepEqual(brE, brR) {
		t.Fatal("per-branch stats diverged between executed and replayed runs")
	}
	// Committed memory must match too: replay retires the same stores.
	const histBase = uint64(0x90000)
	for off := uint64(0); off < 16; off += 8 {
		if e, r := exec.Memory().Read(histBase+off, 8), replay.Memory().Read(histBase+off, 8); e != r {
			t.Fatalf("memory diverged at %#x: executed %d, replayed %d", histBase+off, e, r)
		}
	}
}

func TestReplayExhaustionSurfacesAsError(t *testing.T) {
	p := histogramProgram(4096, 9)
	tr := mustRecord(t, p, 100) // far too short for the program
	c := core.NewWithSource(core.DefaultConfig(), btrace.NewSource(tr),
		bpred.NewTAGESCL64(), testHierarchy(), nil)
	_, err := c.Run(100_000_000)
	if !errors.Is(err, btrace.ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
}

func TestReplayDivergenceSurfacesAsError(t *testing.T) {
	p := histogramProgram(512, 13)
	tr := mustRecord(t, p, 1_000_000)
	// Flip one data-dependent branch outcome: the stream no longer matches
	// the control flow its own records imply.
	flipped := false
	for i := range tr.Recs {
		if tr.Prog.Uops[tr.Recs[i].PC].Op == isa.OpBr && i > 100 {
			tr.Recs[i].Bits ^= 1 // bTaken
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no branch record to flip")
	}
	c := core.NewWithSource(core.DefaultConfig(), btrace.NewSource(tr),
		bpred.NewTAGESCL64(), testHierarchy(), nil)
	_, err := c.Run(100_000_000)
	if !errors.Is(err, btrace.ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestStepsFor(t *testing.T) {
	if got := btrace.StepsFor(30_000, 100_000); got != 130_000+btrace.FetchAheadSlack {
		t.Fatalf("StepsFor = %d", got)
	}
}
