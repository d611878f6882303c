package coloring

import (
	"math/bits"
)

// cvPaletteAfter returns the palette after one Cole-Vishkin bit-reduction
// step applied to a proper coloring with palette P: new colors have the
// form 2*i + b with i an index of a bit position of P-1.
func cvPaletteAfter(p int) int {
	if p <= 2 {
		return p
	}
	return 2 * bits.Len(uint(p-1))
}

// CVSteps returns the number of bit-reduction steps Cole-Vishkin performs
// from an initial palette of n (vertex IDs) down to the 6-color fixed
// point: O(log* n).
func CVSteps(n int) int {
	steps := 0
	for p := n; p > 6; p = cvPaletteAfter(p) {
		steps++
	}
	return steps
}

// CVForestRounds returns the total exchanges of StartCVForests: the
// bit-reduction steps plus six rounds of shift-down/class-removal that
// bring the palette from 6 to 3.
func CVForestRounds(n int) int { return CVSteps(n) + 6 }

// cvForestMsg carries a vertex's current color in every forest it knows
// about, indexed by forest label.
type cvForestMsg struct {
	Colors []int32
}

// cvStep performs one bit-reduction: the new color is 2*i + b where i is
// the lowest bit position at which c and the parent color cp differ and b
// is that bit of c. Roots use cp = c ^ 1.
func cvStep(c, cp int32) int32 {
	d := c ^ cp
	i := int32(bits.TrailingZeros32(uint32(d)))
	return 2*i + ((c >> i) & 1)
}
