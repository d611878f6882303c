// Package segment implements the segmentation scheme of Section 7.5 and
// its two instantiations: the O(k*a^2)-coloring with O(log^(k) n)
// vertex-averaged complexity of Section 7.6 and the O(k*a)-coloring with
// O(a log^(k) n) vertex-averaged complexity of Section 7.7 (Figure 1).
//
// The scheme divides the H-sets produced by Procedure Partition into k
// segments processed from segment k down to segment 1: segment i consists
// of roughly (2/eps)*log^(i) n H-sets. Upon the formation of each H-set,
// algorithms A and B run on it and boundary edges are oriented; once a
// segment's sets have all formed, algorithm C colors the whole segment
// subgraph with a palette block unique to the segment. Because the number
// of active vertices decays exponentially while segment lengths grow as
// iterated logarithms, the vertex-averaged complexity is dominated by the
// first (shortest) segment.
package segment

import (
	"math"

	"vavg/internal/coloring"
	"vavg/internal/hpartition"
)

// Plan is the global round schedule of a segmentation run; all vertices
// compute the identical Plan from (n, a, eps, k), which are global
// knowledge.
type Plan struct {
	// K is the number of segments, in [2, Rho(n)].
	K int
	// A is the partition threshold (2+eps)a.
	A int
	// SegLen[s] is the number of H-sets in the s-th processed segment
	// (s = 0 is segment number K, s = K-1 is segment number 1).
	SegLen []int
	// W is the width in rounds of one H-set iteration window.
	W int
	// CWidth[s] is the width in rounds of the s-th segment's C-block.
	CWidth []int
	// segStart[s] is the first round of segment s; cStart[s] the first
	// round of its C-block.
	segStart, cStart []int
}

// NewPlan builds the schedule. windowW is the per-H-set window width and
// cWidth gives the C-block width of a segment from its length.
func NewPlan(n, a, k int, eps float64, windowW int, cWidth func(segLen int) int) *Plan {
	if k < 2 {
		panic("segment: k must be at least 2")
	}
	if r := coloring.Rho(n); k > r {
		k = r
	}
	p := &Plan{K: k, A: hpartition.ParamA(a, eps), W: windowW}
	c := 2 / eps
	total := 0
	for i := k; i >= 1; i-- {
		l := int(math.Ceil(c * float64(coloring.IterLog(n, i))))
		if l < 1 {
			l = 1
		}
		if i == 1 {
			// The last segment must absorb every remaining vertex.
			if rest := hpartition.EllBound(n, eps) - total; l < rest {
				l = rest
			}
		}
		p.SegLen = append(p.SegLen, l)
		total += l
	}
	round := 0
	for s := range p.SegLen {
		p.segStart = append(p.segStart, round)
		round += p.SegLen[s] * p.W
		p.cStart = append(p.cStart, round)
		cw := cWidth(p.SegLen[s])
		p.CWidth = append(p.CWidth, cw)
		round += cw
	}
	return p
}

// SegmentOf returns the processed-segment index s containing H-set h
// (1-based), along with the segment's H-index range (lo, hi].
func (p *Plan) SegmentOf(h int) (s int, lo, hi int32) {
	acc := 0
	for s = 0; s < len(p.SegLen); s++ {
		if h <= acc+p.SegLen[s] {
			return s, int32(acc), int32(acc + p.SegLen[s])
		}
		acc += p.SegLen[s]
	}
	// Should be unreachable: the final segment absorbs everyone.
	last := len(p.SegLen) - 1
	return last, int32(acc - p.SegLen[last]), int32(acc)
}

// TotalHSets returns the number of partition rounds the plan schedules.
func (p *Plan) TotalHSets() int {
	t := 0
	for _, l := range p.SegLen {
		t += l
	}
	return t
}

// KA2Palette returns the total color budget of KA2Step: k segments
// times the O(a^2) Arb-Linial fixed-point palette.
func KA2Palette(n, a, k int, eps float64) int {
	if r := coloring.Rho(n); k > r {
		k = r
	}
	return k * coloring.LinialFinalPalette(n, hpartition.ParamA(a, eps))
}

const segKind = 4

// KAPalette returns the total color budget of KAStep: k*(A+1).
func KAPalette(n, a, k int, eps float64) int {
	if r := coloring.Rho(n); k > r {
		k = r
	}
	return k * (hpartition.ParamA(a, eps) + 1)
}
