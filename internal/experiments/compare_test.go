package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareBenches checks the regression gate's arithmetic: matched
// points diff wall and allocs against the threshold, unmatched points are
// reported but never counted as regressions. The baseline's "pool" row is
// such a point: the backend is retired, so a fresh run never has it.
func TestCompareBenches(t *testing.T) {
	pt := func(backend string, n int, wall float64, allocs uint64) BackendPoint {
		return BackendPoint{
			Backend: backend, Algorithm: "partition", Family: "ring", N: n,
			WallMs: wall, Allocs: allocs,
		}
	}
	old := &BackendBench{Points: []BackendPoint{
		pt("pool", 1024, 10, 1000),
		pt("step", 1024, 10, 1000),
		pt("goroutines", 1024, 10, 1000),
	}}
	fresh := &BackendBench{Points: []BackendPoint{
		pt("goroutines", 1024, 11, 1000), // +10% wall: within threshold
		pt("step", 1024, 16, 1000),       // +60% wall: regression
		pt("step", 4096, 100, 99999),     // unmatched size
	}}
	rep := CompareBenches(old, fresh, 25)
	if rep.Regressions != 1 {
		t.Fatalf("Regressions = %d, want 1", rep.Regressions)
	}
	if len(rep.Deltas) != 2 {
		t.Fatalf("len(Deltas) = %d, want 2", len(rep.Deltas))
	}
	for _, d := range rep.Deltas {
		if wantReg := d.Backend == "step"; d.Regressed != wantReg {
			t.Errorf("%s: Regressed = %v, want %v", d.Backend, d.Regressed, wantReg)
		}
	}
	// One point only in the new run, and the retired pool row only in
	// the baseline.
	if len(rep.Unmatched) != 2 {
		t.Fatalf("Unmatched = %v, want 2 entries", rep.Unmatched)
	}
	for _, u := range rep.Unmatched {
		if strings.Contains(u, "pool") && !strings.Contains(u, "only in baseline") {
			t.Errorf("pool row %q should be baseline-only", u)
		}
	}

	// Allocation growth alone must trip the gate too.
	fresh2 := &BackendBench{Points: []BackendPoint{pt("goroutines", 1024, 10, 2000)}}
	if rep := CompareBenches(old, fresh2, 25); rep.Regressions != 1 {
		t.Errorf("alloc regression not detected: %d", rep.Regressions)
	}

	var sb strings.Builder
	rep.Write(&sb)
	out := sb.String()
	for _, want := range []string{"REGRESSED", "only in baseline", "only in new run", "1/2 points regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLoadBenchColumnTolerance pins the baseline loader's schema-drift
// contract: a committed baseline generated before a metric column existed
// (here: no faults matrix, points without the allocation columns) must
// still load and diff cleanly against a fresh bench that has them, with
// the absent columns defaulting to zero rather than failing the gate.
func TestLoadBenchColumnTolerance(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	// An old-format artifact: pre-faults, pre-alloc-columns, plus a field
	// this reader has never heard of.
	if err := os.WriteFile(old, []byte(`{
		"goVersion": "go1.21.0",
		"gomaxprocs": 1,
		"numCPU": 1,
		"retiredField": {"ignored": true},
		"points": [
			{"backend": "goroutines", "algorithm": "partition", "family": "ring", "n": 1024, "wallMs": 10},
			{"backend": "step", "algorithm": "partition", "family": "ring", "n": 1024, "wallMs": 10}
		]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBench(old)
	if err != nil {
		t.Fatalf("old-format baseline failed to load: %v", err)
	}
	if len(base.Points) != 2 || base.Faults != nil {
		t.Fatalf("loaded baseline = %+v, want 2 points and no faults matrix", base)
	}
	if base.Points[0].Allocs != 0 {
		t.Errorf("missing alloc column should default to zero, got %d", base.Points[0].Allocs)
	}

	// The column-added fresh bench diffs against it without regressions:
	// zero-valued baseline columns are growth-from-nothing and never gate
	// (pctGrowth treats a zero old value as no growth), and the faults
	// matrix is not part of the point-matching at all.
	fresh := &BackendBench{
		Points: []BackendPoint{
			{Backend: "goroutines", Algorithm: "partition", Family: "ring", N: 1024, WallMs: 10, Allocs: 4096, PeakBytes: 1 << 20},
			{Backend: "step", Algorithm: "partition", Family: "ring", N: 1024, WallMs: 11, Allocs: 4096, PeakBytes: 1 << 20},
		},
		Faults: []FaultPoint{{Algorithm: "partition", N: 1024, Drop: 0.25, Converged: true}},
		// New matrices and memory columns the baseline predates: folded
		// into the keyed diff as unmatched, never as failures.
		OutOfCore: []OutOfCorePoint{
			{Source: "ram", Backend: "step", Algorithm: "partition", Family: "ring", N: 1024, WallMs: 9},
			{Source: "file", Backend: "step", Algorithm: "partition", Family: "ring", N: 1024, WallMs: 9, MappedBytes: 1 << 20, PeakRSSBytes: 1 << 21},
		},
	}
	fresh.Points[0].PeakRSSBytes = 1 << 21
	rep := CompareBenches(base, fresh, 25)
	if rep.Regressions != 0 {
		t.Errorf("column-added bench regressed against old baseline: %+v", rep.Deltas)
	}
	if len(rep.Deltas) != 2 || len(rep.Unmatched) != 2 {
		t.Errorf("got %d deltas / %d unmatched, want 2 / 2", len(rep.Deltas), len(rep.Unmatched))
	}
	for _, u := range rep.Unmatched {
		if !strings.Contains(u, "outofcore-") || !strings.Contains(u, "only in new run") {
			t.Errorf("unexpected unmatched entry %q", u)
		}
	}

	// Degenerate baselines are rejected, not silently diffed against.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"goVersion": "go1.21.0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(empty); err == nil {
		t.Error("baseline without points should be rejected")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(bad); err == nil {
		t.Error("unparseable baseline should be rejected")
	}
	if _, err := LoadBench(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing baseline file should be rejected")
	}
}
