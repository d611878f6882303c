package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"vavg"
	"vavg/internal/engine"
)

// tiny runs a workload at 1/scale of its size with the shortest window.
func tiny(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: 3, seconds: 0, trace: trace, scale: 256, dir: t.TempDir(), setups: 2}
}

func mustRun(t *testing.T, cfg config) result {
	t.Helper()
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2*cfg.setups {
		t.Fatalf("%s: correct=%t failed=%d attempted=%d", cfg.workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// Every workload emits every named metric with its unit, untraced and
// traced, and nothing else.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := mustRun(t, tiny(t, w.name, trace))
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			if !trace && res.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s = %v", w.name, res.Metrics["wall_s"].Value)
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics and workloads the program
// emits.
func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d = %+v, want %s in %s", i, c.got[i], d.name, d.unit)
			}
		}
	}
}

// A corrupted output fails its check, and a corrupted digest fails the
// comparison; either raises failed_frac.
func TestCorruptionRaisesFailedFrac(t *testing.T) {
	cfg := tiny(t, "rounds-forests", true)
	tr := newTracer()
	b, err := setupRoundsForests(cfg, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := b.points[0]
	res, err := engine.RunSpec(pt.view, engine.Spec{Step: stepForms[pt.alg.Name](pt.p.Arboricity, pt.p.Eps)}, engine.Options{Seed: pt.p.Seed, MaxRounds: pt.p.MaxRounds})
	if err != nil {
		t.Fatal(err)
	}
	// Give vertex 0 the color of a neighbor.
	res.Output[0] = res.Output[pt.g.Neighbors(0)[0]]
	var rep vavg.Report
	validate, err := audit(pt.alg, pt.g, pt.p, res, &rep, false)
	if err == nil {
		err = validate()
	}
	if err == nil {
		t.Fatal("corrupted coloring passed its check")
	}

	var tl tally
	good := b.tracedUnit(tr)
	tl.judge(good, b.ref, b.full)
	if tl.failed != 0 {
		t.Fatalf("clean unit failed: %v", tl.errs)
	}
	bad := good
	bad.digest = bad.digest[:len(bad.digest)-1] + "x"
	tl.judge(bad, b.ref, b.full)
	bad = good
	bad.full = "0" + bad.full[1:]
	tl.judge(bad, b.ref, b.full)
	bad = good
	bad.err = err
	tl.judge(bad, b.ref, b.full)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3", tl.attempted, tl.failed)
	}
}

// Self times are non-negative and every child span lies inside its
// parent, on every workload's traced units.
func TestSpansNest(t *testing.T) {
	for _, w := range workloads {
		cfg := tiny(t, w.name, true)
		tr := newTracer()
		b, err := w.setup(cfg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr.beginUnit()
		if out := b.tracedUnit(tr); out.err != nil {
			t.Fatal(out.err)
		}
		b.close()
		self := selfTimes(tr.spans)
		for i, s := range tr.spans {
			if s.End < s.Start {
				t.Errorf("%s: span %s ends before it starts", w.name, s.Name)
			}
			if self[i] < 0 {
				t.Errorf("%s: span %s self time %d < 0", w.name, s.Name, self[i])
			}
			if s.Parent >= 0 {
				p := tr.spans[s.Parent]
				if s.Start < p.Start || s.End > p.End || s.Unit != p.Unit {
					t.Errorf("%s: span %s [%d,%d] not inside parent %s [%d,%d]", w.name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
		}
	}
}

func TestSelfTimesUnionChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},
		{Name: "c", Start: 70, End: 80, Parent: 0},
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 25, 20, 10, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// liveAfterSetup sets up cfg's workload through the benchmark's own
// set-up path and returns the live heap after a full collection, with the
// set-up's inputs still held.
func liveAfterSetup(t *testing.T, cfg config) uint64 {
	t.Helper()
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := newBench(w, cfg, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	emptyPools()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	runtime.KeepAlive(b)
	return s[0].Value.Uint64()
}

// A workload run after another in the same process reports the same
// per-run memory as when run alone, and its set-up leaves the same live
// heap: nothing an earlier workload built (cached graphs, memoized RCM
// views) survives into its measurements. graph.heap_bytes sums only the
// workload's own graphs, so the live heap is the check that catches a
// leak; the sizes are large enough that a leaked graph of any other
// workload exceeds the tolerance.
func TestMemoryIsolation(t *testing.T) {
	const tolerance = 256 << 10
	measure := func(name string) (float64, float64, uint64) {
		cfg := tiny(t, name, false)
		cfg.scale = 16
		cfg.setups = 5
		e2e := mustRun(t, cfg)
		cfg.trace = true
		cfg.setups = 2
		layers := mustRun(t, cfg)
		cfg.trace = false
		return e2e.Metrics["alloc_bytes_per_vertex_round"].Value, layers.Metrics["graph.heap_bytes"].Value, liveAfterSetup(t, cfg)
	}
	aloneBytes, aloneHeap, aloneLive := measure("rounds-forests")
	for _, w := range workloads {
		if w.name != "rounds-forests" {
			measure(w.name)
		}
	}
	afterBytes, afterHeap, afterLive := measure("rounds-forests")
	t.Logf("live heap after set-up: alone %d B, after other workloads %d B", aloneLive, afterLive)
	if d := int64(afterLive) - int64(aloneLive); d > tolerance || d < -tolerance {
		t.Errorf("live heap after set-up alone %d B, after other workloads %d B", aloneLive, afterLive)
	}
	if aloneHeap != afterHeap {
		t.Errorf("graph.heap_bytes alone %v, after other workloads %v", aloneHeap, afterHeap)
	}
	if d := afterBytes/aloneBytes - 1; d > 0.05 || d < -0.05 {
		t.Errorf("alloc_bytes_per_vertex_round alone %v, after other workloads %v", aloneBytes, afterBytes)
	}
}

// On a sweep, graph.cache_hits counts one untraced Sweep, one hit per
// size, and graph.cache_misses one miss per size, however many units run.
func TestSweepCacheCounts(t *testing.T) {
	for _, units := range []int{2, 5} {
		cfg := tiny(t, "sweep-mis", true)
		cfg.scale = 16 // keeps the sizes distinct
		cfg.setups = units
		res := mustRun(t, cfg)
		n := float64(len(sweepSizes))
		if h, m := res.Metrics["graph.cache_hits"].Value, res.Metrics["graph.cache_misses"].Value; h != n || m != n {
			t.Errorf("%d units: cache hits %v misses %v, want %v and %v", units, h, m, n, n)
		}
	}
}
