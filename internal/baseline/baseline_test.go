package baseline

import (
	"testing"

	"vavg/internal/check"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

func TestForestDecompositionWC(t *testing.T) {
	g := graph.ForestUnion(500, 3, 5)
	res, err := engine.RunSpec(g, engine.Spec{Step: ForestDecompositionWCStep(3, 2)}, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orient, labels, err := forest.Collect(g, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	A := hpartition.ParamA(3, 2)
	if err := check.ForestDecomposition(g, orient, labels, A); err != nil {
		t.Error(err)
	}
	// Worst-case behavior: every vertex pays the full ell rounds.
	ell := hpartition.EllBound(g.N(), 2)
	for v := 0; v < g.N(); v++ {
		if int(res.Rounds[v]) < ell {
			t.Fatalf("vertex %d terminated after %d rounds, want >= ell=%d", v, res.Rounds[v], ell)
		}
	}
	// Contrast with the paper's O(1) vertex-averaged version.
	fast, err := engine.RunSpec(g, engine.Spec{Step: forest.StepProgram(3, 2)}, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fast.VertexAverage()*2 > res.VertexAverage() {
		t.Errorf("expected a clear gap: fast %.2f vs WC %.2f", fast.VertexAverage(), res.VertexAverage())
	}
}

func TestWCColoringsProper(t *testing.T) {
	g := graph.ForestUnion(300, 2, 9)
	A := hpartition.ParamA(2, 2)
	cases := []struct {
		name string
		prog engine.StepProgram
		max  int
	}{
		{"arblinial", ArbLinialWCStep(2, 2), coloring.LinialPaletteAfter(g.N(), A)},
		{"iterated", IteratedArbLinialWCStep(2, 2), coloring.LinialFinalPalette(g.N(), A)},
		{"arbcolor", ArbColorWCStep(2, 2), A + 1},
	}
	for _, c := range cases {
		res, err := engine.RunSpec(g, engine.Spec{Step: c.prog}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cols := make([]int, g.N())
		for v, o := range res.Output {
			cols[v] = o.(int)
		}
		if err := check.VertexColoring(g, cols, c.max); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestMISBaselines(t *testing.T) {
	g := graph.ForestUnion(300, 3, 11)
	res, err := engine.RunSpec(g, engine.Spec{Step: MISByColoringWCStep(3, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, g.N())
	for v, o := range res.Output {
		in[v] = o.(bool)
	}
	if err := check.MIS(g, in); err != nil {
		t.Errorf("deterministic WC MIS: %v", err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		res, err := engine.RunSpec(g, engine.Spec{Step: LubyMISStep()}, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for v, o := range res.Output {
			in[v] = o.(bool)
		}
		if err := check.MIS(g, in); err != nil {
			t.Errorf("Luby seed=%d: %v", seed, err)
		}
	}
}

func TestRing3Coloring(t *testing.T) {
	for _, n := range []int{16, 128, 1024} {
		g := graph.Ring(n)
		res, err := engine.RunSpec(g, engine.Spec{Step: Ring3ColoringStep()}, engine.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, g.N())
		for v, o := range res.Output {
			cols[v] = o.(int)
		}
		if err := check.VertexColoring(g, cols, 3); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		// All vertices terminate together: vertex-averaged == worst case,
		// Feuilloley's negative example.
		if res.VertexAverage() != float64(res.TotalRounds) {
			t.Errorf("n=%d: avg %.2f != worst %d", n, res.VertexAverage(), res.TotalRounds)
		}
	}
}

func TestLeaderElectionRing(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		g := graph.Ring(n)
		res, err := engine.RunSpec(g, engine.Spec{Step: LeaderElectionRingStep()}, engine.Options{Seed: 1, MaxRounds: 64 * n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		leaders := 0
		for _, o := range res.Output {
			if o.(LeaderOutput).Leader {
				leaders++
			}
		}
		if leaders != 1 {
			t.Fatalf("n=%d: %d leaders", n, leaders)
		}
		avgCommit := res.CommitAverage()
		maxCommit := res.MaxCommit()
		// Exponential gap: average commitment is O(log n), the last
		// commitment (the leader's) is Theta(n)-ish.
		if n >= 64 && avgCommit*4 > float64(maxCommit) {
			t.Errorf("n=%d: avg commit %.1f vs max %d — expected a clear gap", n, avgCommit, maxCommit)
		}
	}
}
