package extend

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Problem is an extension-from-partial-solution problem with per-vertex
// outputs (Definition 8.1): any partial solution on a subgraph can be
// extended to the whole graph without changing it. FrameworkStep (Theorem
// 8.2) converts a worst-case algorithm for such a problem — supplied as
// StartSolve, running on one H-set against the frozen partial solution of
// the earlier sets — into an algorithm whose vertex-averaged complexity
// is the H-set cost with Delta replaced by O(a).
type Problem interface {
	// WorkRounds returns the exact number of rounds StartSolve's machine
	// runs on an H-set of an n-vertex graph with within-set degree bound
	// A. It must be a pure function of (n, A) so that every vertex derives
	// the same window schedule.
	WorkRounds(n, A int) int
	// StartSolve begins solving inside the caller's current turn — the
	// turn the H-set's (A+1)-coloring finished in — and must terminate
	// with engine.Done carrying this vertex's output exactly WorkRounds
	// rounds later.
	StartSolve(api *engine.API, ctx *HSetContext) engine.Step
}

// HSetContext is the per-vertex view StartSolve receives.
type HSetContext struct {
	// A is the partition threshold (within-set degrees are at most A).
	A int
	// Tracker is the partition state; Tracker.NbrH classifies neighbors.
	Tracker *hpartition.Tracker
	// Members lists same-set neighbor indices.
	Members []int
	// SetColor is this vertex's color in a proper (A+1)-coloring of the
	// H-set, for sequencing within the set.
	SetColor int
	// Finals maps neighbor indices to the final outputs of neighbors that
	// terminated in earlier windows.
	Finals map[int]any
	// Sink forwards stray messages to the partition bookkeeping; the
	// solving turns must pass unrecognized messages here.
	Sink coloring.Sink
}

// FrameworkWindow returns the iteration window width for a problem.
func FrameworkWindow(n, a int, eps float64, p Problem) int {
	A := hpartition.ParamA(a, eps)
	return 2 + coloring.DeltaPlus1Rounds(n, A) + p.WorkRounds(n, A)
}

// misProblem solves MIS on an H-set: color classes take turns joining
// unless dominated (the reduction of Section 3.2 of [4] the paper invokes
// in Corollary 8.4).
type misProblem struct{}

func (misProblem) WorkRounds(n, A int) int { return A + 1 }

// listColorProblem solves (deg+1)-list-coloring on an H-set: classes of
// the set coloring take turns picking the first list color not yet used
// by a neighbor.
type listColorProblem struct {
	list func(v int) []int
}

func (listColorProblem) WorkRounds(n, A int) int { return A + 1 }
