package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"vavg"
	"vavg/internal/parallel"
)

// metricDef names a metric and its unit. The catalogs below are the
// benchmark's contract; BENCHMARK.json at the repository root lists the
// same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"vertex_rounds_per_s", "vertex-rounds/s"},
	{"allocs_per_vertex_round", "allocs"},
	{"alloc_bytes_per_vertex_round", "bytes"},
}

var perLayer = []metricDef{
	{"graph.setup_s", "s"},
	{"graph.heap_bytes", "bytes"},
	{"graph.mapped_bytes", "bytes"},
	{"graph.cache_hits", "count"},
	{"graph.cache_misses", "count"},
	{"scenario.compile_frac", "ratio"},
	{"engine.run_s", "s"},
	{"engine.ns_per_vertex_round", "ns"},
	{"engine.ns_per_active_vertex_round", "ns"},
	{"engine.rounds", "count"},
	{"engine.vertex_rounds", "count"},
	{"engine.active_vertex_rounds", "count"},
	{"engine.messages", "count"},
	{"engine.dropped", "count"},
	{"engine.lost_to_crash", "count"},
	{"engine.restarts", "count"},
	{"engine.shards", "count"},
	{"engine.workers", "count"},
	{"engine.allocs", "count"},
	{"engine.alloc_bytes", "bytes"},
	{"engine.peak_heap_bytes", "bytes"},
	{"vertex.boot_s", "s"},
	{"vertex.boot_ns_per_vertex", "ns"},
	{"vertex.boot_calls", "count"},
	{"check.validate_s", "s"},
	{"vavg.run_s", "s"},
	{"vavg.audit_other_s", "s"},
	{"sweep.points", "count"},
	{"sweep.point_s", "s"},
	{"sweep.parallel_efficiency", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed units. A unit fails if it errored,
// failed its check, or produced another digest than the reference.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) judge(out outcome, ref, full digest) bool {
	t.attempted++
	err := out.err
	switch {
	case err != nil:
	case out.digest != ref:
		err = fmt.Errorf("digest %s, want %s", out.digest, ref)
	case full != "" && out.full != "" && out.full != full:
		err = fmt.Errorf("full digest %s, want %s", out.full, full)
	}
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// div is a/b, or 0 when no unit succeeded and b is 0: JSON has no
// infinities.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOver is the median of m over units (absent units count as 0).
func medianOver(units []int, m map[int]int64) float64 {
	xs := make([]float64, len(units))
	for i, u := range units {
		xs[i] = float64(m[u])
	}
	return median(xs)
}

// ratioOver is the median over units of num/den.
func ratioOver(units []int, num, den map[int]int64) float64 {
	xs := make([]float64, 0, len(units))
	for _, u := range units {
		if den[u] != 0 {
			xs = append(xs, float64(num[u])/float64(den[u]))
		}
	}
	return median(xs)
}

// run measures the workload cfg names for cfg.seconds and checks every
// unit, then returns the metrics. Set-ups and timed units interleave:
// each set-up is followed by unitsPerSetup timed units on its inputs, so
// set-ups and units sample the same stretch of machine time. The window
// closes once cfg.seconds have passed and at least cfg.setups set-ups
// ran. Progress and provenance go to log.
func run(cfg config, log io.Writer) (result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "vavgperf workload=%s seed=%d seconds=%g trace=%t scale=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	tr := newTracer()
	var t tally
	var b *bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	var setupS, walls, serialWalls, mallocs, allocBytes []float64
	var setupUnits, tracedUnits []int
	var shards []int
	var cache cacheCounts
	ref, hasRef := pins[w.name]
	hasRef = hasRef && cfg.seed == defaultSeed && cfg.scale == 1
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for cycle := 0; cycle < cfg.setups || time.Now().Before(deadline); cycle++ {
		if b != nil {
			// Drop the last set-up's inputs before the next one, so each
			// set-up starts from the same heap.
			b.close()
			b = nil
		}
		var setupMisses int
		var s float64
		b, s, setupMisses, err = newBench(w, cfg, tr, cycle)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, s)
		setupUnits = append(setupUnits, b.setupUnit)
		shards = append(shards, b.shards...)
		// Warm-ups are checked units too: at the default seed they must
		// match the pins, and every set-up must match the first.
		if !hasRef {
			ref, hasRef = pinDigests{unit: b.ref, full: b.full}, true
		}
		for _, out := range b.warm {
			t.judge(out, ref.unit, ref.full)
		}

		// The set-up's units run back to back. Once the window has closed,
		// a set-up gets one unit only.
		for k := 0; k < unitsPerSetup && (k == 0 || time.Now().Before(deadline)); k++ {
			emptyPools()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			h0, x0 := vavg.GraphCacheStats()
			t0 := time.Now()
			out := b.unit()
			wall := time.Since(t0).Seconds()
			h1, x1 := vavg.GraphCacheStats()
			runtime.ReadMemStats(&m1)
			cache = cacheCounts{hits: h1 - h0, misses: setupMisses + x1 - x0}
			if t.judge(out, b.ref, "") {
				walls = append(walls, wall)
				mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
				allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			}
			shards = append(shards, out.shards...)
			if !cfg.trace {
				continue
			}
			if b.sweep != nil {
				// The traced sweep runs its points one after another; its
				// overhead is against an untraced serial pass.
				emptyPools()
				t0 := time.Now()
				out := b.serialUnit()
				serial := time.Since(t0).Seconds()
				if t.judge(out, b.ref, "") {
					serialWalls = append(serialWalls, serial)
				}
				shards = append(shards, out.shards...)
			}
			emptyPools()
			tr.beginUnit()
			tout := b.tracedUnit(tr)
			if t.judge(tout, b.ref, b.full) {
				tracedUnits = append(tracedUnits, tr.unit)
			}
			shards = append(shards, tout.shards...)
		}
	}

	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	res.Correct = t.failed == 0
	vr := float64(b.vertexRounds)
	wallS := median(walls)
	if cfg.trace {
		untraced := wallS
		if b.sweep != nil {
			untraced = median(serialWalls)
		}
		vals := layerValues(b, tr, setupUnits, tracedUnits, wallS, untraced)
		vals["graph.cache_hits"] = float64(cache.hits)
		vals["graph.cache_misses"] = float64(cache.misses)
		vals["failed_frac"] = float64(t.failed) / float64(t.attempted)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		fmt.Fprint(log, "graph set-up medians:")
		for _, step := range graphSteps {
			fmt.Fprintf(log, " %s=%.4gs", step, medianOver(setupUnits, unitSums(tr.spans, nil, step))/1e9)
		}
		fmt.Fprintln(log)
		if err := writeTrace(cfg, tr); err != nil {
			fmt.Fprintf(log, "trace dump: %v\n", err)
		}
	} else {
		vals := map[string]float64{
			"setup_s":                      median(setupS),
			"wall_s":                       wallS,
			"vertex_rounds_per_s":          div(vr, wallS),
			"allocs_per_vertex_round":      div(median(mallocs), vr),
			"alloc_bytes_per_vertex_round": div(median(allocBytes), vr),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}

	report(log, cfg, res, t, setupS, walls, shards, b)
	return res, nil
}

// unitsPerSetup is how many timed units follow each set-up. More units
// per set-up time more units in a run; fewer time more set-ups.
const unitsPerSetup = 3

// cacheCounts are the graph cache's hits during one untraced unit, and
// its misses during that unit and the set-up before it.
type cacheCounts struct{ hits, misses int }

// newBench runs one timed set-up of w: it empties the graph cache, so no
// graph of an earlier set-up or workload survives into this one, then
// builds the inputs and runs the warm-up. It returns the set-up's time and
// the graph cache misses it caused.
func newBench(w workload, cfg config, tr *tracer, rep int) (*bench, float64, int, error) {
	vavg.GraphCachePurge()
	emptyPools()
	_, misses0 := vavg.GraphCacheStats()
	tr.beginUnit()
	unit := tr.unit
	t0 := time.Now()
	b, err := w.setup(cfg, tr, rep)
	s := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	_, misses1 := vavg.GraphCacheStats()
	b.setupUnit = unit
	return b, s, misses1 - misses0, nil
}

// emptyPools runs two GC cycles, which empty every sync.Pool, so each
// unit starts from the same state whichever P the last one ended on (see
// README.md).
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// graphSteps are the graph-layer spans of a set-up. Their total is the
// metric graph.setup_s; the report breaks it down, because a workload
// that skips a step would otherwise report a time of exactly 0.
var graphSteps = []string{"graph.generate", "graph.write", "graph.load", "graph.relabel"}

// layerValues derives the per-layer metrics from the spans: times are
// medians over traced units of each unit's total, counts are exact.
func layerValues(b *bench, tr *tracer, setupUnits, units []int, wallS, untracedS float64) map[string]float64 {
	sp := tr.spans
	self := selfTimes(sp)
	sec := func(name string) float64 { return medianOver(units, unitSums(sp, nil, name)) / 1e9 }
	last := 0
	if len(units) > 0 {
		last = units[len(units)-1]
	}
	eng := func(key string) map[int]int64 { return unitCounts(sp, "engine.run", key) }
	engNs := unitSums(sp, nil, "engine.run")
	bootCPU, bootCalls := unitCounts(sp, "vertex.boot", "cpu_ns"), unitCounts(sp, "vertex.boot", "calls")
	heap, mapped := b.graphBytes()
	graphNs := map[int]int64{}
	for _, step := range graphSteps {
		for u, ns := range unitSums(sp, nil, step) {
			graphNs[u] += ns
		}
	}
	v := map[string]float64{
		"graph.setup_s":                     medianOver(setupUnits, graphNs) / 1e9,
		"graph.heap_bytes":                  float64(heap),
		"graph.mapped_bytes":                float64(mapped),
		"scenario.compile_frac":             ratioOver(units, unitSums(sp, nil, "scenario.compile"), unitSums(sp, nil, "vavg.run")),
		"engine.run_s":                      sec("engine.run"),
		"engine.ns_per_vertex_round":        ratioOver(units, engNs, eng("vertex_rounds")),
		"engine.ns_per_active_vertex_round": ratioOver(units, engNs, eng("active_vertex_rounds")),
		"engine.allocs":                     medianOver(units, eng("allocs")),
		"engine.alloc_bytes":                medianOver(units, eng("alloc_bytes")),
		"vertex.boot_s":                     medianOver(units, bootCPU) / 1e9,
		"vertex.boot_ns_per_vertex":         ratioOver(units, bootCPU, bootCalls),
		"vertex.boot_calls":                 float64(bootCalls[last]),
		"check.validate_s":                  sec("check.validate"),
		"vavg.run_s":                        sec("vavg.run"),
		"vavg.audit_other_s":                medianOver(units, unitSums(sp, self, "vavg.run")) / 1e9,
		"sweep.points":                      float64(len(b.points)),
		"sweep.point_s":                     sec("vavg.run"),
		"runtime.gc_cycles":                 medianOver(units, eng("gc_cycles")),
		"runtime.gc_cpu_frac":               ratioOver(units, eng("gc_cpu_ns"), engNs) / float64(runtime.GOMAXPROCS(0)),
	}
	for _, k := range []string{"rounds", "vertex_rounds", "active_vertex_rounds", "messages", "dropped", "lost_to_crash", "restarts"} {
		v["engine."+k] = float64(eng(k)[last])
	}
	for _, s := range sp {
		if s.Name != "engine.run" {
			continue
		}
		v["engine.peak_heap_bytes"] = max(v["engine.peak_heap_bytes"], float64(s.Counts["peak_heap_bytes"]))
		if s.Unit == last {
			v["engine.shards"] = max(v["engine.shards"], float64(s.Counts["shards"]))
			v["engine.workers"] = max(v["engine.workers"], float64(s.Counts["workers"]))
		}
	}
	// A one-Run workload is a one-point sweep on one worker.
	workers, root := 1, "vavg.run"
	if b.sweep != nil {
		workers, root = parallel.Workers(b.sweep.p.SweepWorkers, len(b.points)), "vavg.sweep"
	}
	v["sweep.parallel_efficiency"] = div(v["sweep.point_s"], float64(workers)*wallS)
	v["trace.overhead_frac"] = div(sec(root), untracedS) - 1
	return v
}

func writeTrace(cfg config, tr *tracer) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.dir, "trace-"+cfg.workload+".jsonl"), buf.Bytes(), 0o644)
}

// report prints the human-readable summary: provenance, every metric with
// its unit and sample count, and the checks.
func report(log io.Writer, cfg config, res result, t tally, setupS, walls []float64, shards []int, b *bench) {
	fmt.Fprintf(log, "provenance nproc=%d gomaxprocs=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	distinct := slices.Clone(shards)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	fmt.Fprintf(log, "engine.shards per unit: %v", distinct)
	if len(distinct) > 1 {
		fmt.Fprint(log, "  FLAG: the autotuned shard count differed between units")
	}
	fmt.Fprintln(log)
	if prev, ok := flagShards(cfg, distinct); !ok {
		fmt.Fprintf(log, "FLAG: the autotuned shard count changed since the previous run (%s -> %v)\n", prev, distinct)
	}
	fmt.Fprintf(log, "setup_s %s\n", spread(setupS))
	fmt.Fprintf(log, "wall_s %s vertex_rounds/unit=%d\n", spread(walls), b.vertexRounds)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-34s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(log, "failed_frac %.4g (%d/%d units)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	for _, e := range t.errs {
		fmt.Fprintf(log, "  failure: %s\n", e)
	}
	fmt.Fprintf(log, "digest unit=%s full=%s\n", b.ref, b.full)
}

// flagShards compares this run's shard counts with the previous run's
// for the same workload, recorded in cfg.dir, and records the new ones.
func flagShards(cfg config, shards []int) (string, bool) {
	path := filepath.Join(cfg.dir, "shards-"+cfg.workload+".txt")
	cur := fmt.Sprint(shards)
	prev, err := os.ReadFile(path)
	if os.MkdirAll(cfg.dir, 0o755) == nil {
		os.WriteFile(path, []byte(cur), 0o644)
	}
	if err != nil {
		return "", true
	}
	p := strings.TrimSpace(string(prev))
	return p, p == cur
}

// spread describes a sample: its size, quartiles and extremes.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "samples=0"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("samples=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g", len(s), s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}
