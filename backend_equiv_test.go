package vavg

import (
	"math"
	"reflect"
	gort "runtime"
	"strings"
	"testing"

	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/graph"
)

// TestCrossBackendEquivalenceRegistry is the execution-strategy
// contract of the engine on every registered algorithm and every graph
// family of the golden grid: a registry algorithm has only a step form,
// so every backend name that accepts it runs the step driver, and the
// driver's two strategies must yield byte-identical engine Results —
// rounds, commitments, outputs, active-set decay, message counts. One
// shard never touches the cross-shard lanes; four shards on four workers
// route every cross-shard delivery through the staged lanes and the
// barrier merge. TestGoldenDigests pins what the Results are; this suite
// checks that how a run is laid out never changes them. The list-coloring
// entry point (not a registry algorithm) rides along.
func TestCrossBackendEquivalenceRegistry(t *testing.T) {
	oldProcs := gort.GOMAXPROCS(4) // four workers for the sharded runs
	defer gort.GOMAXPROCS(oldProcs)

	type equivCase struct {
		name     string
		ringOnly bool
		spec     func(g *Graph, p Params) engine.Spec
	}
	var cases []equivCase
	for _, alg := range Algorithms() {
		alg := alg
		cases = append(cases, equivCase{
			name:     alg.Name,
			ringOnly: ringOnly(alg),
			spec:     func(_ *Graph, p Params) engine.Spec { return alg.spec(p) },
		})
	}
	cases = append(cases, equivCase{name: "list-coloring", spec: func(g *Graph, p Params) engine.Spec {
		list := func(v int) []int {
			out := make([]int, g.Degree(v)+1)
			for i := range out {
				out[i] = 100 + 2*i
			}
			return out
		}
		return engine.Spec{Step: extend.ListColoringStep(p.Arboricity, p.Eps, list)}
	}})

	families := []struct {
		name string
		gen  func() *Graph
		a    int
	}{
		{"ring", func() *Graph { return Ring(160) }, 2},
		{"forests", func() *Graph { return ForestUnion(160, 3, 7) }, 3},
		{"starforest", func() *Graph { return StarForest(160, 16) }, 2},
		{"trigrid", func() *Graph { return TriangulatedGrid(12, 12) }, 3},
		{"tree", func() *Graph { return RandomTree(160, 5) }, 1},
		{"gnm", func() *Graph { return Gnm(140, 420, 9) }, 0},
	}
	for _, c := range cases {
		for _, fam := range families {
			if c.ringOnly && fam.name != "ring" {
				continue
			}
			if testing.Short() && fam.name != "ring" && fam.name != "forests" {
				continue
			}
			c, fam := c, fam
			t.Run(c.name+"/"+fam.name, func(t *testing.T) {
				t.Parallel()
				g := fam.gen()
				p := Params{Arboricity: fam.a, Seed: 11, MaxRounds: 1 << 21}.withDefaults(g)
				spec := c.spec(g, p)
				layouts := []struct {
					backend string
					shards  int
				}{{"", 1}, {"step", 4}}
				var results []*engine.Result
				for _, l := range layouts {
					res, err := engine.RunSpec(g, spec, engine.Options{
						Seed: p.Seed, MaxRounds: p.MaxRounds, Backend: l.backend, StepShards: l.shards,
					})
					if err != nil {
						t.Fatalf("backend %q shards=%d: %v", l.backend, l.shards, err)
					}
					// Shards is layout provenance, not an observable; the
					// equivalence contract covers everything else.
					res.Shards = 0
					results = append(results, res)
				}
				if base, res := results[0], results[1]; !reflect.DeepEqual(base, res) {
					t.Errorf("four-shard Result differs from one-shard:\n rounds eq=%v outputs eq=%v active eq=%v messages %d vs %d",
						reflect.DeepEqual(base.Rounds, res.Rounds),
						reflect.DeepEqual(base.Output, res.Output),
						reflect.DeepEqual(base.ActivePerRound, res.ActivePerRound),
						base.Messages, res.Messages)
				}
			})
		}
	}
}

// TestStepWorkerInvarianceRegistry extends the worker-invariance gate
// from synthetic programs to the real registry: for every algorithm, the
// step backend must produce byte-identical Results at P ∈ {1, 2, 4, 8} —
// P applied as both StepShards (lane layout) and GOMAXPROCS (worker
// parallelism) — faultless and under a drop+crash+restart scenario. CI
// runs this under -race, where any cross-shard store outside the staged
// lanes surfaces as a race rather than a flake.
func TestStepWorkerInvarianceRegistry(t *testing.T) {
	forest := ForestUnion(160, 3, 7)
	ring := Ring(160)
	sc := &Scenario{Drop: 0.1, CrashFrac: 0.03, CrashRound: 4, RestartAfter: 8, Seed: 9,
		Crashes: []Crash{{V: 1, Round: 2}, {V: 5, Round: 5, Restart: 9}}}
	points := []int{1, 2, 4, 8}
	if testing.Short() {
		points = []int{1, 4}
	}
	for _, alg := range Algorithms() {
		g, a := forest, 3
		if ringOnly(alg) {
			g, a = ring, 2
		}
		alg, g, a := alg, g, a
		t.Run(alg.Name, func(t *testing.T) {
			// GOMAXPROCS is process-global, so the P axis runs sequentially
			// (no t.Parallel) and each point restores the previous value.
			p := Params{Arboricity: a, Seed: 11, MaxRounds: 1 << 21}.withDefaults(g)
			spec := alg.spec(p)
			for _, fault := range []string{"faultless", "dropcrash"} {
				opts := engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds, Backend: "step"}
				if fault == "dropcrash" {
					adv, err := sc.Clone().Compile(g.N(), p.Seed)
					if err != nil {
						t.Fatal(err)
					}
					// A crashed-forever vertex can strand a run; the budget
					// turns that into a deterministic DNF outcome that must
					// itself be invariant across layouts.
					opts.Adv = adv
					opts.MaxRounds = 4096
				}
				type outcome struct {
					res *engine.Result
					dnf bool
				}
				var base outcome
				for _, P := range points {
					old := gort.GOMAXPROCS(P)
					opts.StepShards = P
					res, err := engine.RunSpec(g, spec, opts)
					gort.GOMAXPROCS(old)
					if res == nil {
						t.Fatalf("%s P=%d: %v", fault, P, err)
					}
					// The recorded shard count tracks P by construction;
					// everything else must be invariant in it.
					res.Shards = 0
					got := outcome{res, err != nil}
					if P == points[0] {
						base = got
						continue
					}
					if got.dnf != base.dnf || !reflect.DeepEqual(base.res, got.res) {
						t.Errorf("%s P=%d: Result differs from P=%d (dnf %v vs %v; messages %d vs %d, roundSum %d vs %d)",
							fault, P, points[0], got.dnf, base.dnf,
							got.res.Messages, base.res.Messages,
							got.res.RoundSum, base.res.RoundSum)
					}
				}
			}
		})
	}
}

// TestDecayShape re-runs the Lemma 6.1 assertions through the public
// entry point with default Params: Procedure Partition's active set must
// decay within the geometric envelope n*(2/(2+eps))^i, and the
// accounting identities RoundSum == sum(ActivePerRound) and
// VertexAverage <= TotalRounds must hold exactly.
func TestDecayShape(t *testing.T) {
	const (
		n   = 4096
		eps = 2.0 // the Params default
	)
	g := ForestUnion(n, 3, 23)
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Run(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, act := range rep.ActivePerRound {
		sum += int64(act)
		// One slack round: vertices pay a final output round after the
		// partition decision, shifting the measured decay by one.
		bound := float64(n) * math.Pow(2/(2+eps), math.Max(float64(i-1), 0))
		if float64(act) > bound+1 {
			t.Errorf("round %d: active %d exceeds Lemma 6.1 envelope %.1f", i+1, act, bound)
		}
	}
	if sum != rep.RoundSum {
		t.Errorf("sum of ActivePerRound = %d, RoundSum = %d", sum, rep.RoundSum)
	}
	if rep.VertexAvg > float64(rep.WorstCase) {
		t.Errorf("VertexAvg %.2f exceeds WorstCase %d", rep.VertexAvg, rep.WorstCase)
	}
}

// TestParamsBackendSelection checks the façade plumbing: an explicit
// unknown or retired backend must surface as an error listing the valid
// names, "goroutines" must refuse a registry algorithm (it has no
// blocking form), and "step", "auto" and "" must run it identically.
func TestParamsBackendSelection(t *testing.T) {
	g := graph.ForestUnion(100, 2, 3)
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Backends(), []string{"goroutines", "step"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Backends() = %v, want %v", got, want)
	}
	for _, bad := range []string{"bogus", "pool"} {
		_, err := alg.Run(g, Params{Backend: bad})
		if err == nil {
			t.Errorf("backend %q should fail", bad)
			continue
		}
		for _, name := range append(Backends(), "auto") {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("backend %q error %q does not list %q", bad, err, name)
			}
		}
	}
	if _, err := alg.Run(g, Params{Backend: "goroutines"}); err == nil || !strings.Contains(err.Error(), "blocking form") {
		t.Errorf("backend goroutines on a step-only algorithm: error %v, want one naming the missing blocking form", err)
	}
	want, err := alg.Run(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"step", "auto"} {
		got, err := alg.Run(g, Params{Backend: backend})
		if err != nil {
			t.Errorf("backend %s: %v", backend, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("backend %s: Report differs from the default backend's", backend)
		}
	}
}
