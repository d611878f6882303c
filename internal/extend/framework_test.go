package extend

import (
	"reflect"
	"testing"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

func TestMISFrameworkMatchesDirectImplementation(t *testing.T) {
	g := graph.ForestUnion(300, 3, 5)
	direct, err := engine.RunSpec(g, engine.Spec{Step: MISStep(3, 2)}, engine.Options{Seed: 4, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	generic, err := engine.RunSpec(g, engine.Spec{Step: FrameworkStep(3, 2, misProblem{})}, engine.Options{Seed: 4, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.MIS(g, MISSet(generic.Output)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Output, generic.Output) {
		t.Error("framework MIS differs from the direct implementation")
	}
	if !reflect.DeepEqual(direct.Rounds, generic.Rounds) {
		t.Error("framework MIS round accounting differs from the direct implementation")
	}
}

func TestListColoringArbitraryLists(t *testing.T) {
	g := graph.ForestUnion(250, 2, 9)
	// Shifted lists: vertex v may only use colors {v%5*10, ..., v%5*10+deg}.
	list := func(v int) []int {
		base := (v % 5) * 1000
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = base + i
		}
		return out
	}
	res, err := engine.RunSpec(g, engine.Spec{Step: ListColoringStep(2, 2, list)}, engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cols := Colors(res.Output)
	if err := check.VertexColoring(g, cols, 0); err != nil {
		t.Fatal(err)
	}
	// Every vertex used a color from its own list.
	for v, c := range cols {
		found := false
		for _, lc := range list(v) {
			if lc == c {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vertex %d color %d not in its list", v, c)
		}
	}
}

func TestListColoringDegPlusOneIsDeltaPlus1(t *testing.T) {
	g := graph.StarForest(200, 10)
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res, err := engine.RunSpec(g, engine.Spec{Step: ListColoringStep(2, 2, list)}, engine.Options{Seed: 2, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VertexColoring(g, Colors(res.Output), g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}
