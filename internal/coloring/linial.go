// Package coloring implements the vertex-coloring machinery of the paper:
// the Linial-style color reduction on forest decompositions (Procedure
// Arb-Linial-Coloring, used by Sections 7.2, 7.3, 7.6), Kuhn-Wattenhofer
// palette-halving reduction and greedy class-iteration reduction (used as
// the (Delta+1)- and (deg+1)-list-coloring subroutines on H-sets),
// Cole-Vishkin 3-coloring of rooted forests, and the complete coloring
// algorithms of Sections 7.2, 7.3 and 7.4.
package coloring

import "math"

// LogStar returns log* n with base-2 logarithms: the number of times log2
// must be applied to n before the value drops to at most 1.
func LogStar(n int) int {
	s := 0
	x := float64(n)
	for x > 1 {
		x = math.Log2(x)
		s++
	}
	return s
}

// IterLog returns log^(k) n (k-fold iterated base-2 logarithm), floored at
// 1: log^(0) n = n.
func IterLog(n, k int) int {
	x := float64(n)
	for i := 0; i < k; i++ {
		if x <= 1 {
			return 1
		}
		x = math.Log2(x)
	}
	if x < 1 {
		return 1
	}
	return int(math.Ceil(x))
}

// Rho returns rho(n), the largest k such that log^(k-1) n >= log* n
// (Section 7.5). The segmentation scheme accepts 2 <= k <= rho(n).
// For tiny n (log* n <= 1, where every iterated logarithm is already at
// its floor) rho degenerates to the minimum legal value 2.
func Rho(n int) int {
	ls := LogStar(n)
	if ls <= 1 {
		return 2
	}
	k := 1
	for IterLog(n, k) >= ls {
		k++
	}
	if k < 2 {
		return 2
	}
	return k
}

// isPrime reports primality by trial division.
func isPrime(q int) bool {
	if q < 2 {
		return false
	}
	for d := 2; d*d <= q; d++ {
		if q%d == 0 {
			return false
		}
	}
	return true
}

// primeTableLimit bounds the prime table. Field sizes are O(A log n), far
// below it for the palettes the algorithms use; LinialParams falls back to
// trial division past it.
const primeTableLimit = 1 << 15

// primes lists every prime below primeTableLimit in ascending order. It is
// built once at package init and only read afterwards: LinialParams runs
// for every vertex, and trial-dividing every candidate q there showed up
// in CPU profiles.
var primes = sievePrimes(primeTableLimit)

// sievePrimes returns the primes below limit (sieve of Eratosthenes).
func sievePrimes(limit int) []int {
	composite := make([]bool, limit)
	var ps []int
	for q := 2; q < limit; q++ {
		if composite[q] {
			continue
		}
		ps = append(ps, q)
		for m := q * q; m < limit; m += q {
			composite[m] = true
		}
	}
	return ps
}

// polyDegree returns the smallest d >= 1 with q^d >= p.
func polyDegree(p, q int) int {
	d, pow := 1, q
	for pow < p {
		pow *= q
		d++
	}
	return d
}

// LinialParams returns the prime field size q and polynomial degree d used
// to reduce a proper p-coloring to a q^2-coloring on an orientation with
// out-degree at most A: the smallest prime q with q^d >= p and q > A*d.
// Distinct colors map to distinct polynomials of degree < d over F_q, and
// two distinct polynomials of degree < d agree on at most d-1 points. The
// A parents of a vertex therefore rule out at most A*(d-1) evaluation
// points; the code uses the simpler bound q > A*d, which leaves a free
// point (x, f(x)) that becomes the new color x*q + f(x).
func LinialParams(p, A int) (q, d int) {
	if p < 2 {
		return 2, 1
	}
	for _, q := range primes {
		if d := polyDegree(p, q); q > A*d {
			return q, d
		}
	}
	for q = primeTableLimit; ; q++ {
		if !isPrime(q) {
			continue
		}
		if d = polyDegree(p, q); q > A*d {
			return q, d
		}
	}
}

// LinialPaletteAfter returns the palette size after one reduction step
// from a p-coloring with out-degree bound A: q^2.
func LinialPaletteAfter(p, A int) int {
	q, _ := LinialParams(p, A)
	return q * q
}

// LinialSchedule returns the sequence of palette sizes visited when
// iterating the reduction from an initial proper p0-coloring until the
// palette reaches a fixed point: schedule[0] = p0, each subsequent entry
// the next palette. The map p -> q(p)^2 is monotone and its fixed points
// are squares of primes exceeding 2A, so the iteration converges to an
// O(A^2) palette in O(log* p0) steps (it may grow once from a small p0
// before stabilizing).
func LinialSchedule(p0, A int) []int {
	sched := []int{p0}
	p := p0
	for iter := 0; ; iter++ {
		if iter > 64 {
			panic("coloring: Linial schedule failed to converge")
		}
		next := LinialPaletteAfter(p, A)
		if next == p {
			return sched
		}
		sched = append(sched, next)
		p = next
	}
}

// LinialFinalPalette returns the fixed-point palette size of the iterated
// reduction starting from p0 (the number of colors Procedure
// Arb-Linial-Coloring uses after all its O(log* n) steps): O(A^2).
func LinialFinalPalette(p0, A int) int {
	s := LinialSchedule(p0, A)
	return s[len(s)-1]
}

// evalPoly evaluates the polynomial whose coefficients are the base-q
// digits of c (degree < d) at point x over F_q.
func evalPoly(c, q, d, x int) int {
	// Horner on digits most-significant first. q >= 2, so an int color has
	// at most 64 digits and the digit buffer lives on the stack.
	var digits [64]int
	for i := 0; i < d; i++ {
		digits[i] = c % q
		c /= q
	}
	y := 0
	for i := d - 1; i >= 0; i-- {
		y = (y*x + digits[i]) % q
	}
	return y
}

// LinialStep computes the new color of a vertex with current color c from
// a proper p-coloring, given the current colors of its at most A parents.
// The result lies in [0, q^2) and differs from every parent's LinialStep
// result as well as from the parents' current colors' set points, so
// applying LinialStep simultaneously everywhere preserves properness along
// oriented edges. It panics if no free point exists, which would indicate
// a violated precondition (c == parent color, or more than A parents).
func LinialStep(p, A, c int, parents []int) int {
	q, d := LinialParams(p, A)
	for x := 0; x < q; x++ {
		y := evalPoly(c, q, d, x)
		free := true
		for _, pc := range parents {
			if evalPoly(pc, q, d, x) == y {
				free = false
				break
			}
		}
		if free {
			return x*q + y
		}
	}
	panic("coloring: no free evaluation point (precondition violated)")
}
