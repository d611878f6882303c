package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vavg"
	"vavg/internal/graph"
	imetrics "vavg/internal/metrics"
)

// workload is one named input set. Its set-up builds every input from
// the seed and runs one warm-up unit; its unit is what the benchmark
// times.
type workload struct {
	name string
	why  string
	// setup builds the inputs, recording graph-layer spans in tr; with
	// cfg.trace it also builds what the traced unit needs (RCM view, boot
	// timers). rep numbers the set-ups of one run.
	setup func(cfg config, tr *tracer, rep int) (*bench, error)
}

// The workloads. Sizes are divided by config.scale, which is 1 for the
// benchmark and larger in its tests.
var workloads = []workload{
	{"rounds-forests", "multi-round arblinial-o1 on a forest union: the engine round loop, delivery, shard merge and vertex code dominate", setupRoundsForests},
	{"boot-ring-file", "1-round partition on a mmap-loaded ring: per-vertex boot, output assembly and check dominate; the round loop does almost nothing", setupBootRingFile},
	{"sweep-mis", "Sweep of idle-heavy mis over cached forests: the only user of the parallel fan-out, the graph cache and sleeper fast-forward", setupSweepMIS},
	{"faults-shuffled", "arblinial-o1 with drops, crashes and restarts on an RCM view of a shuffled ring: the only user of scenario and graph.Relabel", setupFaultsShuffled},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	forestsN    = 1 << 18
	ringN       = 1_000_000
	faultsN     = 1 << 18
	faultsSpec  = "drop=0.1,crashfrac=0.01,crashround=2,restart=2"
	forestArb   = 3
	sweepSeedsN = 4
)

var sweepSizes = []int{1024, 2048, 4096}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides every input size: 1 is the benchmark, tests use more.
	scale int
	// dir holds the graph files and the span dump.
	dir string
	// setups is the least number of set-ups, however short the run.
	setups int
}

func (c config) size(n int) int { return max(n/c.scale, 64) }

// point is one Algorithm.Run: its algorithm, graph and parameters, plus
// the traced path's engine view (the RCM view under Relabel "rcm") and
// boot timer.
type point struct {
	alg  vavg.Algorithm
	g    *vavg.Graph
	p    vavg.Params
	view *vavg.Graph
	boot *bootTimer
}

// bench is a set-up workload.
type bench struct {
	points []*point
	// sweep is non-nil when the unit is one vavg.Sweep over points.
	sweep *sweepArgs
	// vertexRounds is Σ RoundSum over one unit's runs.
	vertexRounds int64
	// ref is the warm-up's unit digest; full digests the warm-up's
	// per-vertex rounds and outputs (traced set-ups only).
	ref, full digest
	// graphs are the graphs the unit runs on, for the memory metrics.
	graphs []*vavg.Graph
	files  []string
	// setupUnit is the tracer unit the set-up's graph spans belong to.
	setupUnit int
	// warm are the warm-up units' outcomes, checked like timed units; shards
	// are the shard counts their untraced runs used.
	warm   []outcome
	shards []int
}

type sweepArgs struct {
	alg   vavg.Algorithm
	gen   func(n int) *vavg.Graph
	sizes []int
	seeds []int64
	p     vavg.Params
}

// close removes the bench's graph files. A mapping stays valid after its
// file is unlinked.
func (b *bench) close() {
	for _, f := range b.files {
		os.Remove(f)
	}
	b.files = nil
}

// params spells out every default of vavg.Params, so the traced rebuild
// and Algorithm.Run see the same values.
func params(g *vavg.Graph, seed int64) vavg.Params {
	a := g.ArborBound
	if a == 0 {
		a = vavg.Degeneracy(g)
	}
	return vavg.Params{Arboricity: max(a, 1), Eps: 2, K: 2, C: 4, Seed: seed, MaxRounds: 1 << 21}
}

func newPoint(name string, g *vavg.Graph, p vavg.Params) (*point, error) {
	alg, err := vavg.ByName(name)
	if err != nil {
		return nil, err
	}
	return &point{alg: alg, g: g, p: p, view: g}, nil
}

func setupRoundsForests(cfg config, tr *tracer, _ int) (*bench, error) {
	var g *vavg.Graph
	tr.span("graph.generate", func() error { g = vavg.ForestUnion(cfg.size(forestsN), forestArb, cfg.seed); return nil })
	pt, err := newPoint("arblinial-o1", g, params(g, cfg.seed))
	if err != nil {
		return nil, err
	}
	return finishSingle(cfg, tr, pt, g), nil
}

func setupBootRingFile(cfg config, tr *tracer, rep int) (*bench, error) {
	var g0 *vavg.Graph
	tr.span("graph.generate", func() error { g0 = vavg.Ring(cfg.size(ringN)); return nil })
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	// Each set-up gets its own file: loaded graphs stay mapped until the
	// process exits, and rewriting a mapped file in place would fault.
	path := filepath.Join(cfg.dir, fmt.Sprintf("ring-%d-%d.csr", os.Getpid(), rep))
	if err := tr.span("graph.write", func() error { return vavg.WriteGraphFile(path, g0, false) }); err != nil {
		return nil, err
	}
	var g *vavg.Graph
	err := tr.span("graph.load", func() (err error) { g, err = vavg.LoadGraph(path); return err })
	var pt *point
	if err == nil {
		pt, err = newPoint("partition", g, params(g, cfg.seed))
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	b := finishSingle(cfg, tr, pt, g)
	b.files = []string{path}
	return b, nil
}

func setupFaultsShuffled(cfg config, tr *tracer, _ int) (*bench, error) {
	var g *vavg.Graph
	tr.span("graph.generate", func() error { g = vavg.RingShuffled(cfg.size(faultsN), cfg.seed); return nil })
	spec, err := vavg.ParseScenario(faultsSpec)
	if err != nil {
		return nil, err
	}
	p := params(g, cfg.seed)
	p.Relabel = "rcm"
	p.Scenario = spec
	pt, err := newPoint("arblinial-o1", g, p)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// Algorithm.Run memoizes its own view inside vavg; the traced
		// path builds one here, which is the graph.relabel span.
		tr.span("graph.relabel", func() error { pt.view = graph.Relabel(g); return nil })
	}
	b := finishSingle(cfg, tr, pt, g)
	if pt.view != g {
		b.graphs = append(b.graphs, pt.view)
	}
	return b, nil
}

// finishSingle warms up a one-Run workload: one untraced Run gives the
// reference digest, and on traced set-ups one traced run gives the full
// digest.
func finishSingle(cfg config, tr *tracer, pt *point, g *vavg.Graph) *bench {
	b := &bench{points: []*point{pt}, graphs: []*vavg.Graph{g}}
	out := b.unit()
	b.warm = append(b.warm, out)
	b.ref, b.vertexRounds, b.shards = out.digest, out.vertexRounds, out.shards
	if cfg.trace {
		pt.boot = newBootTimer(g.N(), tr.origin)
		b.traceWarmUp(tr)
	}
	return b
}

// traceWarmUp runs one traced unit as part of set-up; it gives the full
// digest the traced units must reproduce.
func (b *bench) traceWarmUp(tr *tracer) {
	tr.beginUnit()
	out := b.tracedUnit(tr)
	b.warm = append(b.warm, out)
	b.full = out.full
}

func setupSweepMIS(cfg config, tr *tracer, _ int) (*bench, error) {
	alg, err := vavg.ByName("mis")
	if err != nil {
		return nil, err
	}
	seed := cfg.seed
	sw := &sweepArgs{
		alg: alg,
		gen: vavg.CachedGen("forests", func(n int) *vavg.Graph { return vavg.ForestUnion(n, forestArb, seed) },
			"a", forestArb, "seed", seed),
		p: vavg.Params{Arboricity: forestArb, Eps: 2, K: 2, C: 4, Seed: seed, MaxRounds: 1 << 21},
	}
	for _, n := range sweepSizes {
		sw.sizes = append(sw.sizes, cfg.size(n))
	}
	for i := range sweepSeedsN {
		sw.seeds = append(sw.seeds, seed+int64(i))
	}
	b := &bench{sweep: sw}
	tr.span("graph.generate", func() error {
		for _, n := range sw.sizes {
			b.graphs = append(b.graphs, sw.gen(n))
		}
		return nil
	})
	for _, g := range b.graphs {
		var boot *bootTimer
		if cfg.trace {
			boot = newBootTimer(g.N(), tr.origin)
		}
		for _, s := range sw.seeds {
			p := sw.p
			p.Seed = s
			b.points = append(b.points, &point{alg: alg, g: g, p: p, view: g, boot: boot})
		}
	}
	// The warm-up runs the points serially through Algorithm.Run; the
	// Sweep every timed unit makes must reproduce their assembled result.
	warm := b.serialUnit()
	b.ref, b.vertexRounds, b.shards = warm.digest, warm.vertexRounds, warm.shards
	b.warm = append(b.warm, warm)
	if cfg.trace {
		b.traceWarmUp(tr)
	}
	return b, nil
}

// serialUnit runs a sweep's points one after another through
// Algorithm.Run and digests the result assembled from them, which the
// parallel Sweep must reproduce.
func (b *bench) serialUnit() outcome {
	var out outcome
	reps := make([]vavg.Report, len(b.points))
	for i, pt := range b.points {
		rep, err := pt.alg.Run(pt.g, pt.p)
		if err != nil && out.err == nil {
			out.err = fmt.Errorf("sweep point n=%d seed=%d: %w", pt.g.N(), pt.p.Seed, err)
		}
		reps[i] = rep
		out.vertexRounds += rep.RoundSum
		out.shards = append(out.shards, rep.StepShards)
	}
	out.digest = sweepDigest(assembleSweep(b.sweep, b.graphs, reps))
	return out
}

// assembleSweep builds the SweepResult that vavg.Sweep reports for these
// per-point reports, ordered size-major as Sweep orders its points.
func assembleSweep(sw *sweepArgs, graphs []*vavg.Graph, reps []vavg.Report) *vavg.SweepResult {
	k := len(sw.seeds)
	out := &vavg.SweepResult{Algorithm: sw.alg.Name, Family: graphs[0].Name}
	for si, n := range sw.sizes {
		med := imetrics.Median(reps[si*k : (si+1)*k])
		out.Points = append(out.Points, vavg.SweepPoint{
			N: n, M: graphs[si].M(), VertexAvg: med.VertexAvg, WorstCase: med.WorstCase,
			Colors: med.Colors, Size: med.Size, Messages: med.Messages,
		})
	}
	return out
}

// outcome is what one unit produced.
type outcome struct {
	digest       digest
	full         digest
	vertexRounds int64
	shards       []int
	err          error
}

// unit is the timed call: one Algorithm.Run, or one vavg.Sweep.
func (b *bench) unit() outcome {
	if sw := b.sweep; sw != nil {
		res, err := vavg.Sweep(sw.alg, sw.gen, sw.sizes, sw.seeds, sw.p)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{digest: sweepDigest(res), vertexRounds: b.vertexRounds}
	}
	pt := b.points[0]
	rep, err := pt.alg.Run(pt.g, pt.p)
	if err == nil && !rep.Converged {
		err = errors.New("run did not converge")
	}
	return outcome{digest: reportDigest(rep), vertexRounds: rep.RoundSum, shards: []int{rep.StepShards}, err: err}
}

// tracedUnit is the unit rebuilt from the layers' public calls, with a
// span around each. A sweep's points run serially under one vavg.sweep
// span.
func (b *bench) tracedUnit(tr *tracer) outcome {
	var out outcome
	run := func(pt *point) (vavg.Report, digest, error) {
		rep, full, err := tracedRun(tr, pt)
		if err == nil && !rep.Converged {
			err = errors.New("run did not converge")
		}
		out.shards = append(out.shards, rep.StepShards)
		return rep, full, err
	}
	if b.sweep == nil {
		rep, full, err := run(b.points[0])
		out.digest, out.full, out.err = reportDigest(rep), full, err
		return out
	}
	root := tr.begin("vavg.sweep")
	reps := make([]vavg.Report, len(b.points))
	fulls := newEncoder()
	for i, pt := range b.points {
		rep, full, err := run(pt)
		if err != nil {
			out.err = fmt.Errorf("sweep point n=%d seed=%d: %w", pt.g.N(), pt.p.Seed, err)
			break
		}
		reps[i] = rep
		fulls.str(string(full))
	}
	tr.end(root)
	if out.err == nil {
		out.digest, out.full = sweepDigest(assembleSweep(b.sweep, b.graphs, reps)), fulls.sum()
	}
	return out
}

// graphBytes reports the heap bytes of the CSR arrays (and relabeling)
// of the unit's graphs, and the bytes of their file mappings.
func (b *bench) graphBytes() (heap, mapped int64) {
	for _, g := range b.graphs {
		if m := int64(g.MappedBytes()); m > 0 {
			mapped += m
			continue
		}
		heap += 4 * int64(cap(g.Off)+cap(g.Adj)+cap(g.Rev))
		if r := g.Perm; r != nil {
			heap += 4 * int64(cap(r.Orig)+cap(r.New)+cap(r.AdjOrig)+cap(r.SlotOrig))
		}
	}
	return heap, mapped
}
