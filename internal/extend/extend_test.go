package extend

import (
	"sort"
	"testing"
	"testing/quick"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

var families = []struct {
	g *graph.Graph
	a int
}{
	{graph.Ring(48), 2},
	{graph.Star(50), 1},
	{graph.StarForest(60, 7), 2},
	{graph.ForestUnion(200, 3, 5), 3},
	{graph.TriangulatedGrid(8, 8), 3},
	{graph.CompleteBinaryTree(63), 1},
	{graph.Clique(10), 5},
}

func TestDeltaPlus1Proper(t *testing.T) {
	for _, c := range families {
		res, err := engine.RunSpec(c.g, engine.Spec{Step: DeltaPlus1Step(c.a, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		cols := Colors(res.Output)
		if err := check.VertexColoring(c.g, cols, c.g.MaxDegree()+1); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		// Stronger per-vertex guarantee: color <= deg(v).
		for v := 0; v < c.g.N(); v++ {
			if cols[v] > c.g.Degree(v) {
				t.Errorf("%s: vertex %d color %d exceeds its degree %d", c.g.Name, v, cols[v], c.g.Degree(v))
			}
		}
	}
}

func TestMISValid(t *testing.T) {
	for _, c := range families {
		res, err := engine.RunSpec(c.g, engine.Spec{Step: MISStep(c.a, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		if err := check.MIS(c.g, MISSet(res.Output)); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
	}
}

func TestEdgeColoringValid(t *testing.T) {
	for _, c := range families {
		res, err := engine.RunSpec(c.g, engine.Spec{Step: EdgeColoringStep(c.a, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		colors, err := CollectEdgeColors(c.g, res.Output)
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		if err := check.EdgeColoring(c.g, colors, 2*c.g.MaxDegree()-1); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		// Per-edge guarantee: color <= deg(u)+deg(v)-2.
		//lint:ignore detorder any violating edge is a valid error witness; the scan only reads
		for e, col := range colors {
			if col > c.g.Degree(int(e.U))+c.g.Degree(int(e.V))-2 {
				t.Errorf("%s: edge {%d,%d} color %d too large", c.g.Name, e.U, e.V, col)
			}
		}
	}
}

func TestMaximalMatchingValid(t *testing.T) {
	for _, c := range families {
		res, err := engine.RunSpec(c.g, engine.Spec{Step: MaximalMatchingStep(c.a, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		if err := check.MaximalMatching(c.g, Matching(res.Output)); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
	}
}

// TestVertexAveragedIndependentOfDelta exercises the headline of Section 8:
// on star forests (constant arboricity, growing Delta), the vertex-averaged
// complexity of all four algorithms must not grow with Delta.
func TestVertexAveragedIndependentOfDelta(t *testing.T) {
	progs := map[string]func(int, float64) engine.StepProgram{
		"deltaplus1": DeltaPlus1Step,
		"mis":        MISStep,
		"edge":       EdgeColoringStep,
		"matching":   MaximalMatchingStep,
	}
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		mk := progs[name]
		var avgs []float64
		for _, k := range []int{4, 16, 64} {
			g := graph.StarForest(1024, k)
			res, err := engine.RunSpec(g, engine.Spec{Step: mk(2, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			avgs = append(avgs, res.VertexAverage())
		}
		if avgs[2] > 1.5*avgs[0]+2 {
			t.Errorf("%s: vertex-averaged complexity grows with Delta: %v", name, avgs)
		}
	}
}

func TestExtendPropertyRandom(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := 1 + int(aRaw%3)
		g := graph.ForestUnion(90, a, seed)
		res, err := engine.RunSpec(g, engine.Spec{Step: MISStep(a, 1)}, engine.Options{Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		if check.MIS(g, MISSet(res.Output)) != nil {
			return false
		}
		res2, err := engine.RunSpec(g, engine.Spec{Step: MaximalMatchingStep(a, 1)}, engine.Options{Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		return check.MaximalMatching(g, Matching(res2.Output)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestEdgeColoringProperty(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := 1 + int(aRaw%3)
		g := graph.ForestUnion(80, a, seed)
		res, err := engine.RunSpec(g, engine.Spec{Step: EdgeColoringStep(a, 1)}, engine.Options{Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		colors, err := CollectEdgeColors(g, res.Output)
		if err != nil {
			return false
		}
		return check.EdgeColoring(g, colors, 2*g.MaxDegree()-1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestExtendDeterministicAcrossSeeds(t *testing.T) {
	// All Section 8 algorithms are deterministic: outputs must be
	// independent of the engine seed.
	g := graph.ForestUnion(150, 2, 8)
	for _, c := range []struct {
		name string
		mk   engine.StepProgram
	}{
		{"mis", MISStep(2, 2)},
		{"dp1", DeltaPlus1Step(2, 2)},
		{"edge", EdgeColoringStep(2, 2)},
		{"matching", MaximalMatchingStep(2, 2)},
	} {
		name, mk := c.name, c.mk
		r1, err := engine.RunSpec(g, engine.Spec{Step: mk}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, err := engine.RunSpec(g, engine.Spec{Step: mk}, engine.Options{Seed: 7, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range r1.Output {
			if !outputsEqual(r1.Output[v], r2.Output[v]) {
				t.Fatalf("%s: output diverged across seeds at vertex %d", name, v)
			}
		}
	}
}

func outputsEqual(a, b any) bool {
	if ea, ok := a.(EdgeOutput); ok {
		eb, ok := b.(EdgeOutput)
		if !ok || len(ea.Assigned) != len(eb.Assigned) {
			return false
		}
		for k, v := range ea.Assigned {
			if eb.Assigned[k] != v {
				return false
			}
		}
		return true
	}
	return a == b
}

func TestEdgeColoringOnHypercube(t *testing.T) {
	g := graph.Hypercube(5)
	res, err := engine.RunSpec(g, engine.Spec{Step: EdgeColoringStep(6, 2)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	colors, err := CollectEdgeColors(g, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.EdgeColoring(g, colors, 2*g.MaxDegree()-1); err != nil {
		t.Error(err)
	}
}
