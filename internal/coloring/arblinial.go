package coloring

import (
	"math"

	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// ArbLinialO1Palette returns the palette bound of ArbLinialO1Step.
func ArbLinialO1Palette(n, a int, eps float64) int {
	return LinialPaletteAfter(n, hpartition.ParamA(a, eps))
}

// phaseSplit returns t = floor(c' * loglog n) clamped to [1, EllBound],
// with c' = log_{(2+eps)/2} 2, the phase-1 length of the two-phase
// algorithms (Sections 7.3, 7.4, 9.3).
func phaseSplit(n int, eps float64) (t, ell int) {
	ell = hpartition.EllBound(n, eps)
	if n < 4 {
		return 1, ell
	}
	cPrime := math.Ln2 / math.Log((2+eps)/2)
	t = int(math.Floor(cPrime * math.Log2(math.Log2(float64(n)))))
	if t < 1 {
		t = 1
	}
	if t > ell {
		t = ell
	}
	return t, ell
}

// SegmentParents returns the neighbor indices that are this vertex's
// parents within the H-set segment (lo, hi]: neighbors in a later H-set of
// the segment, or in the same set with a higher ID.
func SegmentParents(api *engine.API, tr *hpartition.Tracker, lo, hi int32) (members, parents []int) {
	ids := api.NeighborIDs()
	my := tr.HIndex
	for k, h := range tr.NbrH {
		if h <= lo || h > hi {
			continue
		}
		members = append(members, k)
		if h > my || (h == my && int(ids[k]) > api.ID()) {
			parents = append(parents, k)
		}
	}
	return members, parents
}

// TwoPhaseA2PhasePalette returns the per-phase palette bound P of
// TwoPhaseA2Step; the algorithm uses at most 2P = O(a^2) colors.
func TwoPhaseA2PhasePalette(n, a int, eps float64) int {
	return LinialFinalPalette(n, hpartition.ParamA(a, eps))
}
