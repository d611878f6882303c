package coloring

import (
	"vavg/internal/hpartition"
)

// AColorSchedule collects the round schedule shared by every vertex of the
// Section 7.4 algorithm (and reused by the segmentation scheme of Section
// 7.7). All quantities derive from (n, a, eps), which are global
// knowledge, so each vertex computes the same schedule locally.
type AColorSchedule struct {
	A    int // partition threshold (2+eps)a
	T    int // phase-1 iterations: floor(c' loglog n)
	Ell  int // partition completion bound
	W    int // width of one iteration window
	S1   int // round at which the phase-1 recolor wave starts
	Wrc1 int // width of the phase-1 recolor window
	S2   int // round at which the phase-2 recolor wave starts
	Wrc2 int // width of the phase-2 recolor window
}

// NewAColorSchedule computes the schedule for an n-vertex graph.
func NewAColorSchedule(n, a int, eps float64) AColorSchedule {
	A := hpartition.ParamA(a, eps)
	t, ell := phaseSplit(n, eps)
	// Window: partition round + settle + Delta+1 coloring + color exchange.
	w := 3 + DeltaPlus1Rounds(n, A)
	s1 := t * w
	wrc1 := (A+1)*t + 2
	s2 := s1 + wrc1 + (ell-t)*w
	wrc2 := (A+1)*(ell-t) + 2
	return AColorSchedule{A: A, T: t, Ell: ell, W: w, S1: s1, Wrc1: wrc1, S2: s2, Wrc2: wrc2}
}

const dp1Kind = 2

// AColorPalette returns the color budget of AColorLogLogStep: 2(A+1).
func AColorPalette(a int, eps float64) int {
	return 2 * (hpartition.ParamA(a, eps) + 1)
}
