package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"vavg"
	"vavg/internal/check"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/hpartition"
	imetrics "vavg/internal/metrics"
	"vavg/internal/scenario"
)

// stepForms maps the registry names the workloads use to the exported
// step constructors of their algorithm packages. The registry keeps its
// own step forms unexported, so the traced path rebuilds Algorithm.Run
// from these, engine.RunSpec and the check package.
var stepForms = map[string]func(a int, eps float64) engine.StepProgram{
	"partition":    hpartition.StepProgram,
	"arblinial-o1": coloring.ArbLinialO1Step,
	"mis":          extend.MISStep,
}

// bootTimer wraps a StepProgram to time every vertex boot: the
// StepProgram call plus the vertex's first turn. Each vertex writes only
// its own cell, so engine workers share no counter, and the first-turn
// wrappers are built once in set-up, so timing allocates nothing inside
// the engine run.
type bootTimer struct {
	origin time.Time
	inner  engine.StepProgram
	cells  []bootCell
	turns  []engine.StepFn
}

type bootCell struct {
	fn        engine.StepFn
	cpu       int64 // Σ boot time of this vertex, reboots included
	calls     int64
	waveStart int64 // interval of the vertex's first boot, relative to origin
	waveEnd   int64
}

func newBootTimer(n int, origin time.Time) *bootTimer {
	b := &bootTimer{origin: origin, cells: make([]bootCell, n), turns: make([]engine.StepFn, n)}
	for v := range b.turns {
		b.turns[v] = func(api *engine.API, inbox []engine.Msg) engine.Step { return b.first(v, api, inbox) }
	}
	return b
}

func (b *bootTimer) reset(inner engine.StepProgram) {
	b.inner = inner
	clear(b.cells)
}

func (b *bootTimer) program(api *engine.API) engine.StepFn {
	v := api.ID()
	c := &b.cells[v]
	t0 := int64(time.Since(b.origin))
	c.fn = b.inner(api)
	t1 := int64(time.Since(b.origin))
	if c.calls == 0 {
		c.waveStart = t0
	}
	c.calls++
	c.cpu += t1 - t0
	return b.turns[v]
}

func (b *bootTimer) first(v int, api *engine.API, inbox []engine.Msg) engine.Step {
	c := &b.cells[v]
	t0 := int64(time.Since(b.origin))
	s := c.fn(api, inbox)
	t1 := int64(time.Since(b.origin))
	if c.waveEnd == 0 {
		c.waveEnd = t1
	}
	c.cpu += t1 - t0
	c.fn = nil
	return s
}

// totals sums the boot time and calls over all vertices and returns the
// interval of the first boot wave. Reboots count in cpu and calls but not
// in the interval, which would otherwise stretch to the last reboot.
func (b *bootTimer) totals() (cpu, calls, start, end int64) {
	start = -1
	for i := range b.cells {
		c := &b.cells[i]
		cpu += c.cpu
		calls += c.calls
		if c.calls > 0 && (start < 0 || c.waveStart < start) {
			start = c.waveStart
		}
		end = max(end, c.waveEnd)
	}
	return cpu, calls, max(start, 0), end
}

// gcCPU reads the runtime's estimate of GC CPU seconds so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapSampler polls the heap's object bytes until stopped; the maximum is
// the engine run's peak heap, a diagnostic only.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peak stops the sampler, waits for it to end and returns the peak.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}

// tracedRun is Algorithm.Run rebuilt from engine.RunSpec and the check
// package, with a span around each layer call: scenario.compile,
// engine.run (with the aggregated vertex.boot span inside it) and
// check.validate, all under one vavg.run span. Its Report must equal the
// untraced Run's; the second result digests the per-vertex rounds and
// outputs.
func tracedRun(tr *tracer, pt *point) (vavg.Report, digest, error) {
	root := tr.begin("vavg.run")
	rep, res, err := tracedRunSpans(tr, pt)
	tr.end(root)
	if err != nil {
		return rep, "", err
	}
	full, err := resultDigest(res)
	return rep, full, err
}

func tracedRunSpans(tr *tracer, pt *point) (vavg.Report, *engine.Result, error) {
	g, p := pt.g, pt.p
	mk, ok := stepForms[pt.alg.Name]
	if !ok {
		return vavg.Report{}, nil, fmt.Errorf("no step constructor for %s", pt.alg.Name)
	}
	degraded := p.Scenario != nil && !p.Scenario.IsZero()
	var adv *engine.Adversary
	if degraded {
		sp := tr.begin("scenario.compile")
		spec := p.Scenario.Clone()
		var err error
		adv, err = spec.Compile(g.N(), p.Seed)
		var epochs []scenario.Epoch
		if err == nil {
			epochs, err = spec.Epochs(g.N())
		}
		tr.end(sp)
		if err == nil && len(epochs) > 0 {
			err = errors.New("dynamic edge epochs are not traced")
		}
		if err != nil {
			return vavg.Report{}, nil, err
		}
	}

	pt.boot.reset(mk(p.Arboricity, p.Eps))
	es := tr.begin("engine.run")
	hs := startHeapSampler()
	gc0 := gcCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := engine.RunSpec(pt.view, engine.Spec{Step: pt.boot.program}, engine.Options{
		Seed: p.Seed, MaxRounds: p.MaxRounds, Backend: p.Backend, Adv: adv, StepShards: p.StepShards,
	})
	runtime.ReadMemStats(&m1)
	gc1 := gcCPU()
	peak := hs.peak()
	tr.end(es)
	converged := true
	if err != nil {
		if !degraded || res == nil || !errors.Is(err, engine.ErrMaxRounds) {
			return vavg.Report{}, nil, err
		}
		converged = false
	}
	cpu, calls, bs, be := pt.boot.totals()
	tr.addChild(es, "vertex.boot", bs, be, map[string]int64{"cpu_ns": cpu, "calls": calls})
	var active int64
	for _, a := range res.ActivePerRound {
		active += int64(a)
	}
	workers := min(runtime.GOMAXPROCS(0), max(res.Shards, 1))
	tr.spans[es].Counts = map[string]int64{
		"allocs": int64(m1.Mallocs - m0.Mallocs), "alloc_bytes": int64(m1.TotalAlloc - m0.TotalAlloc),
		"gc_cycles": int64(m1.NumGC - m0.NumGC), "gc_cpu_ns": int64((gc1 - gc0) * 1e9),
		"peak_heap_bytes": int64(peak), "rounds": int64(res.TotalRounds),
		"vertex_rounds": res.RoundSum, "active_vertex_rounds": active, "messages": res.Messages,
		"dropped": res.Dropped, "lost_to_crash": res.LostToCrash, "restarts": int64(res.Restarts),
		"shards": int64(res.Shards), "workers": int64(workers),
	}

	rep := imetrics.FromResult(pt.alg.Name, g.Name, g.N(), g.M(), p.Arboricity, p.Seed, res)
	rep.Converged = converged
	validate, err := audit(pt.alg, g, p, res, &rep, degraded)
	if err != nil {
		return rep, res, err
	}
	cs := tr.begin("check.validate")
	err = validate()
	tr.end(cs)
	return rep, res, err
}

// audit rebuilds Algorithm.Run's output assembly for the output kinds
// the workloads use and returns the check package call that validates
// it: the hard check on a faultless run, the residual-conflict count
// under a scenario. It fills rep's problem-specific fields as Run does;
// the returned call fills ResidualConflicts.
func audit(alg vavg.Algorithm, g *vavg.Graph, p vavg.Params, res *engine.Result, rep *vavg.Report, degraded bool) (func() error, error) {
	n := g.N()
	switch {
	case alg.Kind == vavg.KindVertexColoring && degraded:
		cols := make([]int, n)
		distinct := map[int]bool{}
		for v, o := range res.Output {
			cols[v] = -1
			if c, ok := o.(int); ok && c >= 0 {
				cols[v] = c
				distinct[c] = true
			}
		}
		rep.Colors = len(distinct)
		return func() error {
			rep.ResidualConflicts = check.ColoringConflicts(g, cols)
			return nil
		}, nil
	case degraded:
		return nil, fmt.Errorf("traced audit of %s under a scenario is not supported", alg.Name)
	case alg.Kind == vavg.KindVertexColoring:
		cols := make([]int, n)
		for v, o := range res.Output {
			c, ok := o.(int)
			if !ok {
				return nil, fmt.Errorf("vertex %d output %T, want int", v, o)
			}
			cols[v] = c
		}
		rep.Colors = check.CountColors(cols)
		budget := 0
		if alg.Palette != nil {
			budget = alg.Palette(n, p)
		}
		return func() error { return check.VertexColoring(g, cols, budget) }, nil
	case alg.Kind == vavg.KindMIS:
		in := make([]bool, n)
		size := 0
		for v, o := range res.Output {
			b, ok := o.(bool)
			if !ok {
				return nil, fmt.Errorf("vertex %d output %T, want bool", v, o)
			}
			in[v] = b
			if b {
				size++
			}
		}
		rep.Size = size
		return func() error { return check.MIS(g, in) }, nil
	case alg.Kind == vavg.KindPartition:
		h := make([]int, n)
		for v, o := range res.Output {
			j, ok := o.(hpartition.Join)
			if !ok {
				return nil, fmt.Errorf("vertex %d output %T, want a Join", v, o)
			}
			h[v] = int(j.Index)
		}
		return func() error { return check.HPartition(g, h, hpartition.ParamA(p.Arboricity, p.Eps)) }, nil
	}
	return nil, fmt.Errorf("traced audit of %s is not supported", alg.Name)
}
