package extend

import (
	"fmt"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// edgeRequest asks the receiving endpoint (the head) to color the edge
// connecting sender and receiver; Used lists the colors already present on
// edges at the sender. The slice payload keeps it on the general lane; the
// head's reply — a bare color — travels back fast-lane as wire.TagAssign.
type edgeRequest struct {
	Used []int32
}

// EdgeOutput is the per-vertex output of EdgeColoringStep: the colors this
// vertex assigned, as head, to edges keyed by the tail's vertex ID.
type EdgeOutput struct {
	Assigned map[int32]int32
}

// EdgeColoringWindow returns the iteration window width of the
// edge-coloring and matching programs: settle + Cole-Vishkin forest
// 3-coloring + 3A two-round intra-set subphases + A two-round inter-set
// subphases.
func EdgeColoringWindow(n, a int, eps float64) int {
	A := hpartition.ParamA(a, eps)
	return 2 + coloring.CVForestRounds(n) + 6*A + 2*A
}

// edgeState is the per-vertex bookkeeping shared by the member and active
// roles of the edge-coloring program.
type edgeState struct {
	used     map[int32]bool  // colors on edges incident to this vertex
	assigned map[int32]int32 // tail ID -> color, for edges this vertex assigned
}

func (st *edgeState) usedList() []int32 {
	// Sorted: the list travels inside edgeRequest messages, and message
	// bytes must not depend on map-iteration order.
	return sortedKeys(st.used)
}

// serveRequests assigns a color to every edgeRequest in msgs, in tail-ID
// order, choosing the smallest color free at both endpoints, and replies
// with edgeAssign.
func (st *edgeState) serveRequests(api *engine.API, msgs []engine.Msg) {
	reqs := map[int32]edgeRequest{}
	for _, m := range msgs {
		if r, ok := m.Data.(edgeRequest); ok {
			reqs[m.From] = r
		}
	}
	for _, tail := range sortedKeys(reqs) {
		tailUsed := map[int32]bool{}
		for _, c := range reqs[tail].Used {
			tailUsed[c] = true
		}
		var color int32
		for color = 0; st.used[color] || tailUsed[color]; color++ {
		}
		st.used[color] = true
		st.assigned[tail] = color
		api.SendIDInt(int(tail), wire.Pack(wire.TagAssign, int64(color)))
	}
}

// recordAssign stores the color the head picked for this vertex's pending
// request, if present in msgs.
func (st *edgeState) recordAssign(msgs []engine.Msg, head int32) {
	for _, m := range msgs {
		if x, ok := m.AsInt(); ok && wire.Tag(x) == wire.TagAssign && m.From == head {
			st.used[int32(wire.Payload(x))] = true
		}
	}
}

// CollectEdgeColors reassembles the global edge coloring from per-vertex
// EdgeOutput values: each edge appears exactly once, keyed by its head.
func CollectEdgeColors(g *graph.Graph, outputs []any) (map[graph.Edge]int, error) {
	colors := make(map[graph.Edge]int, g.M())
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[v].(EdgeOutput)
		if !ok {
			return nil, fmt.Errorf("extend: vertex %d output %T, want EdgeOutput", v, outputs[v])
		}
		//lint:ignore detorder any violating edge is a valid error witness; the success path writes one map entry per edge
		for tail, c := range out.Assigned {
			if !g.HasEdge(v, int(tail)) {
				return nil, fmt.Errorf("extend: vertex %d assigned color to non-edge {%d,%d}", v, v, tail)
			}
			e := graph.Edge{U: int32(v), V: tail}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if _, dup := colors[e]; dup {
				return nil, fmt.Errorf("extend: edge {%d,%d} colored twice", e.U, e.V)
			}
			colors[e] = int(c)
		}
	}
	return colors, nil
}
