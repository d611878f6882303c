package coloring

import (
	"testing"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

// TestKWReduceStandalone feeds StartKWReduce a proper m-coloring (vertex IDs on
// a graph with max degree <= A) and checks the reduction to A+1 colors.
func TestKWReduceStandalone(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(30), graph.Grid(5, 6), graph.Clique(7)} {
		A := g.MaxDegree()
		m := g.N()
		prog := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				members := make([]int, api.Degree())
				for k := range members {
					members[k] = k
				}
				return StartKWReduce(api, members, api.ID(), m, A, NopSink, done)
			}
		}
		res, err := engine.RunSpec(g, engine.Spec{Step: prog}, engine.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cols := make([]int, g.N())
		for v, o := range res.Output {
			cols[v] = o.(int)
		}
		if err := check.VertexColoring(g, cols, A+1); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		for _, c := range cols {
			if c >= A+1 {
				t.Fatalf("%s: color %d outside [0,%d)", g.Name, c, A+1)
			}
		}
		// Exactly KWRounds exchanges plus the final round, for everyone.
		if want := KWRounds(m, A) + 1; res.TotalRounds != want {
			t.Errorf("%s: rounds %d, want %d", g.Name, res.TotalRounds, want)
		}
	}
}

// TestCVForestsStandalone 3-colors the label forests of a real forest
// decomposition and verifies per-forest properness.
func TestCVForestsStandalone(t *testing.T) {
	g := graph.ForestUnion(300, 3, 21)
	numLabels := 12
	type out struct {
		colors  []int32
		parents []int // per label: parent vertex ID or -1
	}
	prog := func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			// Deterministic forest structure: out-edges to higher IDs,
			// label = rank among them (capped at numLabels).
			parentIdx := make([]int, numLabels+1)
			parentID := make([]int, numLabels+1)
			for j := range parentIdx {
				parentIdx[j] = -1
				parentID[j] = -1
			}
			label := 0
			for k, id := range api.NeighborIDs() {
				if int(id) > api.ID() && label < numLabels {
					label++
					parentIdx[label] = k
					parentID[label] = int(id)
				}
			}
			return StartCVForests(api, numLabels, parentIdx, NopSink, func(cv []int32) engine.Step {
				return engine.Done(out{colors: cv, parents: parentID})
			})
		}
	}
	res, err := engine.RunSpec(g, engine.Spec{Step: prog}, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		o := res.Output[v].(out)
		for j := 1; j <= numLabels; j++ {
			c := o.colors[j]
			if c < 0 || c > 2 {
				t.Fatalf("vertex %d forest %d color %d outside {0,1,2}", v, j, c)
			}
			if p := o.parents[j]; p >= 0 {
				pc := res.Output[p].(out).colors[j]
				if pc == c {
					t.Fatalf("forest %d edge {%d,%d} monochromatic (%d)", j, v, p, c)
				}
			}
		}
	}
	if want := CVForestRounds(g.N()) + 1; res.TotalRounds != want {
		t.Errorf("rounds %d, want %d", res.TotalRounds, want)
	}
}
