package hpartition

import "math"

// GeneralJoin is the output of the unknown-arboricity partition: the
// H-index plus the threshold phase under which the vertex joined.
type GeneralJoin struct {
	// Index is the global H-set index (1-based, counted across phases).
	Index int32
	// Phase is the doubling phase (threshold (2+eps)*2^Phase) at join time.
	Phase int32
}

// GeneralThreshold returns the active-degree threshold of phase i of the
// unknown-arboricity partition: ceil((2+eps) * 2^i).
func GeneralThreshold(i int, eps float64) int {
	return int(math.Ceil((2 + eps) * math.Pow(2, float64(i))))
}

// generalPhaseLen returns the round budget of phase i: proportional to i,
// so the total across all O(log n) phases is O(log^2 n) in the worst case
// while a vertex of a graph with arboricity a pays only
// O(sum_{i <= log a} i) = O(log^2 a) rounds before its clearing phase.
func generalPhaseLen(i int, eps float64) int {
	return int(math.Ceil(2/eps*float64(i))) + 1
}
