package hpartition

import (
	"math"
	"testing"
	"testing/quick"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

func runPartition(t *testing.T, g *graph.Graph, a int, eps float64) (*engine.Result, []int) {
	t.Helper()
	res, err := engine.RunSpec(g, engine.Spec{Step: StepProgram(a, eps)}, engine.Options{Seed: 1})
	if err != nil {
		t.Fatalf("partition on %s: %v", g.Name, err)
	}
	return res, hIndexes(res.Output)
}

func TestPartitionInvariantOnFamilies(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		a int
	}{
		{graph.Ring(64), 2},
		{graph.Path(50), 1},
		{graph.Star(100), 1},
		{graph.ForestUnion(300, 3, 9), 3},
		{graph.TriangulatedGrid(12, 12), 3},
		{graph.Clique(20), 10},
		{graph.Hypercube(6), 7},
	}
	for _, c := range cases {
		for _, eps := range []float64{0.5, 1, 2} {
			res, h := runPartition(t, c.g, c.a, eps)
			A := ParamA(c.a, eps)
			if err := check.HPartition(c.g, h, A); err != nil {
				t.Errorf("%s eps=%v: %v", c.g.Name, eps, err)
			}
			// Vertex terminates exactly in its join round.
			for v := 0; v < c.g.N(); v++ {
				if int(res.Rounds[v]) != h[v] {
					t.Errorf("%s: vertex %d joined H_%d but ran %d rounds", c.g.Name, v, h[v], res.Rounds[v])
				}
			}
		}
	}
}

func TestPartitionExponentialDecay(t *testing.T) {
	// Lemma 6.1: n_i <= (2/(2+eps))^{i-1} * n. Verify on a large
	// bounded-arboricity graph with eps = 2 (decay factor 1/2).
	g := graph.ForestUnion(4000, 4, 123)
	res, _ := runPartition(t, g, 4, 2)
	n := float64(g.N())
	for i, active := range res.ActivePerRound {
		bound := math.Pow(0.5, float64(i)) * n
		if float64(active) > bound+1e-9 {
			t.Errorf("round %d: %d active, Lemma 6.1 bound %.1f", i+1, active, bound)
		}
	}
}

func TestPartitionVertexAveragedConstant(t *testing.T) {
	// Theorem 6.3: vertex-averaged complexity O(1); with eps=2 the geometric
	// series bounds it by 2. Worst case grows with n.
	prevWorst := 0
	for _, n := range []int{1000, 4000, 16000} {
		g := graph.ForestUnion(n, 3, 77)
		res, _ := runPartition(t, g, 3, 2)
		if avg := res.VertexAverage(); avg > 2.5 {
			t.Errorf("n=%d: vertex-averaged %.2f, want O(1) (<= 2.5)", n, avg)
		}
		if res.TotalRounds < prevWorst {
			t.Logf("n=%d: worst case %d did not grow (prev %d)", n, res.TotalRounds, prevWorst)
		}
		prevWorst = res.TotalRounds
	}
}

func TestEllAndParamA(t *testing.T) {
	if ParamA(3, 2) != 12 {
		t.Errorf("ParamA(3,2) = %d, want 12", ParamA(3, 2))
	}
	if ParamA(1, 0.5) != 3 {
		t.Errorf("ParamA(1,0.5) = %d, want 3", ParamA(1, 0.5))
	}
	if Ell(1024, 2) != 10 {
		t.Errorf("Ell(1024,2) = %d, want 10", Ell(1024, 2))
	}
	defer func() {
		if recover() == nil {
			t.Error("ParamA should panic on eps out of range")
		}
	}()
	ParamA(1, 3)
}

func TestTrackerComposedUse(t *testing.T) {
	// Drive the Tracker inside a larger program: after joining, each vertex
	// spends one settle round, then terminates with (hIndex, #sameSet)
	// where #sameSet counts neighbors known to share its H-set.
	g := graph.ForestUnion(400, 2, 5)
	type out struct {
		h       int32
		sameSet int
	}
	prog := func(api *engine.API) engine.StepFn {
		tr := NewTracker(api, 2, 1)
		// Settle turn: same-round joiners' announcements have arrived.
		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			same := 0
			for _, h := range tr.NbrH {
				if h == tr.HIndex {
					same++
				}
			}
			return engine.Done(out{tr.HIndex, same})
		}
		joinTail := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return engine.Continue(settle)
		}
		var part engine.StepFn
		advance := func(api *engine.API) engine.Step {
			if tr.Advance(api) {
				return engine.Continue(joinTail)
			}
			return engine.Continue(part)
		}
		part = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return advance(api)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step { return advance(api) }
	}
	res, err := engine.RunSpec(g, engine.Spec{Step: prog}, engine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := make([]int, g.N())
	for v, o := range res.Output {
		h[v] = int(o.(out).h)
	}
	if err := check.HPartition(g, h, ParamA(2, 1)); err != nil {
		t.Error(err)
	}
	// sameSet symmetry: u counts v iff v counts u; check via recomputation.
	for v := 0; v < g.N(); v++ {
		want := 0
		for _, w := range g.Neighbors(v) {
			if h[w] == h[v] {
				want++
			}
		}
		if got := res.Output[v].(out).sameSet; got != want {
			t.Errorf("vertex %d sees %d same-set neighbors, want %d", v, got, want)
		}
	}
	// Composed cost: join round + settle + final = h[v] + 2.
	for v := 0; v < g.N(); v++ {
		if int(res.Rounds[v]) != h[v]+2 {
			t.Errorf("vertex %d rounds = %d, want %d", v, res.Rounds[v], h[v]+2)
		}
	}
}

func TestPartitionPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := 1 + int(aRaw%4)
		g := graph.ForestUnion(150, a, seed)
		res, err := engine.RunSpec(g, engine.Spec{Step: StepProgram(a, 1)}, engine.Options{Seed: seed})
		if err != nil {
			return false
		}
		return check.HPartition(g, hIndexes(res.Output), ParamA(a, 1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// hIndexes extracts the per-vertex H-indices from a partition run.
func hIndexes(output []any) []int {
	h := make([]int, len(output))
	for v, o := range output {
		h[v] = int(o.(Join).Index)
	}
	return h
}
