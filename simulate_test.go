package vavg

import (
	"strings"
	"testing"
)

func TestSimulateCustomProgram(t *testing.T) {
	// A user-written vertex program: 2-round neighborhood max.
	g := ForestUnion(200, 2, 5)
	prog := func(api *API) any {
		best := api.ID()
		for i := 0; i < 2; i++ {
			api.Broadcast(best)
			for _, m := range api.Next() {
				if v, ok := m.Data.(int); ok && v > best {
					best = v
				}
			}
		}
		return best
	}
	res, err := Simulate(g, prog, Params{})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport("custom", g, Params{}, res)
	if rep.VertexAvg != 3 || rep.WorstCase != 3 {
		t.Errorf("custom program accounting wrong: %+v", rep)
	}
}

func TestListColoringPublicAPI(t *testing.T) {
	g := TriangulatedGrid(10, 10)
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = 100 + 2*i // even colors only
		}
		return out
	}
	rep, cols, err := ListColoring(g, Params{}, list)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Colors < 2 {
		t.Errorf("suspicious color count %d", rep.Colors)
	}
	for _, c := range cols {
		if c%2 != 0 || c < 100 {
			t.Fatalf("color %d not from the supplied lists", c)
		}
	}
}

// TestDirectRunsRejectAlgorithmOnlyParams pins that Simulate and
// ListColoring refuse Params.Scenario and Params.Relabel instead of
// silently returning the faultless, stored-layout run.
func TestDirectRunsRejectAlgorithmOnlyParams(t *testing.T) {
	g := TriangulatedGrid(6, 6)
	sc, err := ParseScenario("drop=0.9,crashfrac=0.5")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(api *API) any { return api.ID() }
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	for _, c := range []struct {
		field string
		p     Params
	}{
		{"Scenario", Params{Scenario: sc}},
		{"Relabel", Params{Relabel: "bogus"}},
		{"Relabel", Params{Relabel: "rcm"}},
	} {
		if _, err := Simulate(g, prog, c.p); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Simulate with %s set: err = %v, want an error naming the field", c.field, err)
		}
		if _, _, err := ListColoring(g, c.p, list); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("ListColoring with %s set: err = %v, want an error naming the field", c.field, err)
		}
	}
	// The defaults still run.
	for _, p := range []Params{{Scenario: &Scenario{}}, {Relabel: "off"}} {
		if _, err := Simulate(g, prog, p); err != nil {
			t.Errorf("Simulate with default-valued %+v: %v", p, err)
		}
	}
}
