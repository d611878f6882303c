// Package randcolor implements the randomized algorithms of Section 9:
// Procedure Rand-Delta-Plus1 (Section 9.2), a Luby-style (Delta+1)-vertex-
// coloring whose vertex-averaged complexity is O(1) with high probability,
// and the two-phase O(a loglog n)-coloring of Section 9.3, also with O(1)
// vertex-averaged complexity w.h.p.
//
// In every round of the basic protocol each active vertex flips a fair
// bit; on success it draws a uniform color from its remaining palette and
// keeps it if no rival announced the same color in the same round and no
// terminated rival owns it. A vertex therefore terminates with probability
// at least 1/4 per round, giving the exponential decay in active vertices
// that drives the O(1) vertex-averaged bound (Theorem 9.1).
package randcolor

import (
	"math"

	"vavg/internal/hpartition"
)

// finalColor extracts a flat color from a Final payload.
func finalColor(out any) (int32, bool) {
	if c, ok := out.(int); ok {
		return int32(c), true
	}
	return 0, false
}

// phase1T returns t = floor(2 loglog n), clamped to [1, ell].
func phase1T(n, ell int) int {
	t := int(math.Floor(2 * math.Log2(math.Max(2, math.Log2(float64(max(n, 4)))))))
	if t < 1 {
		t = 1
	}
	if t > ell {
		t = ell
	}
	return t
}

// ALogLogPalette returns the color budget of ALogLogStep: (t+1)(A+1).
func ALogLogPalette(n, a int, eps float64) int {
	A := hpartition.ParamA(a, eps)
	ell := hpartition.EllBound(n, eps)
	return (phase1T(n, ell) + 1) * (A + 1)
}
