package analysis

import (
	"strings"
	"testing"
)

// snapshotFixture builds one component package under test.
func snapshotFixture(t *testing.T, src string) *Program {
	t.Helper()
	return loadFixture(t, fixturePkg{
		path:  "repro/internal/comp",
		files: map[string]string{"comp.go": src},
	})
}

func TestSnapshotCoverageFlagsUnserializedExportedField(t *testing.T) {
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	Skipped uint64
	hidden  uint64
}
func (u *Unit) CopyFrom(src *Unit) { u.Counter = src.Counter }
`)
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (Skipped), got %v", diags)
	}
	if !strings.Contains(diags[0], "Skipped") || !strings.Contains(diags[0], RuleSnapshotCoverage) {
		t.Fatalf("diagnostic should name the Skipped field: %v", diags[0])
	}
}

func TestSnapshotCoverageHelperInCodecFileCounts(t *testing.T) {
	// A field copied through a helper function in the copy file is
	// covered; unexported fields not mutated on the sim path are not
	// checked.
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	scratch []uint64
}
func (u *Unit) CopyFrom(src *Unit) { copyGuts(u, src) }
func copyGuts(dst, src *Unit) { dst.Counter = src.Counter }
`)
	if diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()}); len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestSnapshotCoverageIgnoresForeignCopyFrom(t *testing.T) {
	// A CopyFrom taking anything but a pointer to its own receiver type is
	// not a fork copy.
	prog := snapshotFixture(t, `package comp
type Other struct{ V uint64 }
type Unit struct {
	Counter uint64
}
func (u *Unit) CopyFrom(src *Other) {}
`)
	if diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()}); len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestSnapshotCoverageReferenceOutsideCodecFileDoesNotCount(t *testing.T) {
	prog := loadFixture(t, fixturePkg{
		path: "repro/internal/comp",
		files: map[string]string{
			"comp.go": `package comp
type Unit struct {
	Counter uint64
	Hits    uint64
}
func (u *Unit) Touch() { u.Hits++ }
`,
			"copy.go": `package comp
func (u *Unit) CopyFrom(src *Unit) { u.Counter = src.Counter }
`,
		},
	})
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 || !strings.Contains(diags[0], "Hits") {
		t.Fatalf("mutation outside the copy file must not count as coverage, got %v", diags)
	}
}

func TestSnapshotCoverageAllowDirective(t *testing.T) {
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	// Wiring, rebuilt at construction.
	//brlint:allow snapshot-coverage
	Handle uint64
}
func (u *Unit) CopyFrom(src *Unit) { u.Counter = src.Counter }
`)
	if diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()}); len(diags) != 0 {
		t.Fatalf("allow directive should suppress the finding, got %v", diags)
	}
}

// TestSnapshotCoverageFlagsMutatedUnexportedField: a copied type that gains
// an unexported field mutated by code on (or reachable from) the simulation
// path must copy it too — the old exported-only check missed exactly this.
func TestSnapshotCoverageFlagsMutatedUnexportedField(t *testing.T) {
	prog := loadFixture(t, fixturePkg{
		path: "repro/internal/core",
		files: map[string]string{
			"core.go": `package core
type Unit struct {
	Counter uint64
	clock   uint64 // mutated every cycle, missing from the copy
	scratch uint64 // never mutated on the sim path: not checked
}
func (u *Unit) Cycle() { u.tick() }
func (u *Unit) tick()  { u.clock++ }
`,
			"copy.go": `package core
func (u *Unit) CopyFrom(src *Unit) { u.Counter = src.Counter }
`,
		},
	})
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (clock), got %v", diags)
	}
	if !strings.Contains(diags[0], "clock") || !strings.Contains(diags[0], "mutated on the sim path") {
		t.Fatalf("diagnostic should name the mutated unexported field: %v", diags[0])
	}
}
