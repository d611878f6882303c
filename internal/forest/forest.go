// Package forest implements Procedure Parallelized-Forest-Decomposition
// (Section 7.1): an O(a)-forests-decomposition of the input graph's edges
// with O(1) vertex-averaged complexity, against a worst case of
// Theta(log n) for the classical Procedure Forest-Decomposition it
// parallelizes.
//
// The procedure drives Procedure Partition; immediately upon formation of
// H-set H_i, each joining vertex orients its incident edges (toward the
// endpoint in the higher-indexed H-set, or toward the higher ID within the
// same set) and labels its outgoing edges with distinct labels from
// {1,...,outdeg} <= {1,...,A}. Each label class is a forest because every
// vertex has at most one outgoing edge per label and the orientation is
// acyclic.
package forest

import (
	"fmt"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

// Output is the per-vertex result of the decomposition.
type Output struct {
	// H is the vertex's H-set index (1-based).
	H int32
	// Labels maps each out-neighbor's vertex ID to the forest label
	// (1-based) this vertex assigned to the connecting edge.
	Labels map[int32]int32
}

// Decomp is the per-vertex composable state: a partition Tracker plus the
// orientation computed at settle time. Composed algorithms embed it and
// drive it with Start (or StartWC for the worst-case schedule).
type Decomp struct {
	Tr hpartition.Tracker
	// OutIdx lists neighbor indices of outgoing edges (the "parents" of
	// this vertex under the orientation), ascending. The j-th outgoing
	// edge carries forest label j+1.
	OutIdx []int

	// Step-form machine state (see Start): the turn kind due next, the
	// machine's single StepFn, and the continuation run at settle time.
	phase uint8
	next  engine.StepFn
	done  func() engine.Step
}

// NewDecomp initializes decomposition state. The Tracker is part of the
// Decomp, so both come from one allocation.
func NewDecomp(api *engine.API, a int, eps float64) *Decomp {
	return &Decomp{Tr: hpartition.MakeTracker(api, a, eps)}
}

// computeOrientation collects the outgoing edges into an exactly sized
// OutIdx (nil when there are none).
func (d *Decomp) computeOrientation(api *engine.API) {
	ids := api.NeighborIDs()
	me := int32(api.ID())
	n := 0
	for k := range d.Tr.NbrH {
		if d.outgoing(ids, me, k) {
			n++
		}
	}
	if n == 0 {
		return
	}
	d.OutIdx = make([]int, 0, n)
	for k := range d.Tr.NbrH {
		if d.outgoing(ids, me, k) {
			d.OutIdx = append(d.OutIdx, k)
		}
	}
}

// outgoing classifies the k-th incident edge of vertex me. Outgoing edges
// point to neighbors in later H-sets (or still active, hence joining
// later), or to same-set neighbors with higher ID.
func (d *Decomp) outgoing(ids []int32, me int32, k int) bool {
	h := d.Tr.NbrH[k]
	switch {
	case h <= 0: // still active (joins later) or terminated foreign
		return h == 0
	case h > d.Tr.HIndex:
		return true
	case h == d.Tr.HIndex:
		return ids[k] > me
	}
	return false
}

// Out reports whether the k-th incident edge is outgoing, and its label.
func (d *Decomp) Out(k int) (label int32, ok bool) {
	for j, idx := range d.OutIdx {
		if idx == k {
			return int32(j + 1), true
		}
	}
	return 0, false
}

// Parents returns the vertex IDs of out-neighbors.
func (d *Decomp) Parents(api *engine.API) []int32 {
	ids := api.NeighborIDs()
	ps := make([]int32, len(d.OutIdx))
	for j, k := range d.OutIdx {
		ps[j] = ids[k]
	}
	return ps
}

// Output assembles the per-vertex Output of the decomposition.
func (d *Decomp) Output(api *engine.API) Output {
	ids := api.NeighborIDs()
	labels := make(map[int32]int32, len(d.OutIdx))
	for j, k := range d.OutIdx {
		labels[ids[k]] = int32(j + 1)
	}
	return Output{H: d.Tr.HIndex, Labels: labels}
}

// Collect reconstructs the global orientation and labeling from the
// per-vertex outputs of a StepProgram run, for validation: every edge is
// oriented away from the vertex that labeled it.
func Collect(g *graph.Graph, outputs []any) (check.Orientation, map[graph.Edge]int, error) {
	orient := make(check.Orientation, g.M())
	labels := make(map[graph.Edge]int, g.M())
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[v].(Output)
		if !ok {
			return nil, nil, fmt.Errorf("forest: vertex %d output %T, want Output", v, outputs[v])
		}
		//lint:ignore detorder any violating edge is a valid error witness; the success path writes one map entry per edge
		for head, label := range out.Labels {
			if !g.HasEdge(v, int(head)) {
				return nil, nil, fmt.Errorf("forest: vertex %d labeled non-edge to %d", v, head)
			}
			e := graph.Edge{U: int32(v), V: head}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if _, dup := orient[e]; dup {
				return nil, nil, fmt.Errorf("forest: edge {%d,%d} oriented twice", e.U, e.V)
			}
			orient[e] = head
			labels[e] = int(label)
		}
	}
	return orient, labels, nil
}
