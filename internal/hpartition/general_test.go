package hpartition

import (
	"testing"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

func TestGeneralPartitionUnknownArboricity(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		a int
	}{
		{graph.Ring(64), 2},
		{graph.ForestUnion(500, 3, 9), 3},
		{graph.Clique(24), 12},
		{graph.Star(100), 1},
		{graph.TriangulatedGrid(12, 12), 3},
	}
	for _, c := range cases {
		res, err := engine.RunSpec(c.g, engine.Spec{Step: GeneralStepProgram(2)}, engine.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		h, maxThr := generalHIndexes(res.Output, 2)
		if err := check.HPartition(c.g, h, maxThr); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		// The adaptive threshold must stay O(a): generous constant 16(2+eps).
		if maxThr > 16*4*c.a {
			t.Errorf("%s: max threshold %d not O(a=%d)", c.g.Name, maxThr, c.a)
		}
	}
}

func TestGeneralPartitionVertexAveragedIndependentOfN(t *testing.T) {
	var avgs []float64
	for _, n := range []int{1000, 8000} {
		g := graph.ForestUnion(n, 3, 77)
		res, err := engine.RunSpec(g, engine.Spec{Step: GeneralStepProgram(2)}, engine.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		avgs = append(avgs, res.VertexAverage())
	}
	if avgs[1] > avgs[0]*1.5+1 {
		t.Errorf("vertex average grew with n: %v", avgs)
	}
}

func TestGeneralThresholdDoubles(t *testing.T) {
	if GeneralThreshold(1, 2) != 8 || GeneralThreshold(3, 2) != 32 {
		t.Errorf("thresholds wrong: %d %d", GeneralThreshold(1, 2), GeneralThreshold(3, 2))
	}
}

// generalHIndexes extracts per-vertex H-indices and the maximum join
// threshold from a general-partition run.
func generalHIndexes(outputs []any, eps float64) (h []int, maxThreshold int) {
	h = make([]int, len(outputs))
	for v, o := range outputs {
		j := o.(GeneralJoin)
		h[v] = int(j.Index)
		if t := GeneralThreshold(int(j.Phase), eps); t > maxThreshold {
			maxThreshold = t
		}
	}
	return h, maxThreshold
}
