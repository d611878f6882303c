// Package arbdefect implements Section 7.8: Procedure One-Plus-Eta-Arb-Col,
// an O(a^{1+eta})-vertex-coloring whose vertex-averaged complexity grows
// only like log log n in the graph size, against the Omega(log n / ...)
// worst-case lower bound for comparable palettes.
//
// Structure (following the paper, with the substitutions of DESIGN.md):
//
//   - Phase H: run r = ceil(2 loglog n) rounds of Procedure Partition; the
//     vertices that joined form H (all but O(n/log^2 n) of the graph), the
//     rest form the residual R.
//   - Each of H and R is processed by the same coloring stage: every H-set
//     is (A+1)-colored (Delta+1 on the set), edges are oriented toward the
//     later H-set or the higher set color — an acyclic orientation with
//     out-degree at most A and length O(A * #sets) — and then
//     H-Arbdefective-Coloring levels run along that orientation: at each
//     level a vertex waits for its same-class parents and picks the class
//     in {0..k-1} they use least, so its same-class out-degree drops to
//     floor(b/k). After ceil(log_k(A/C)) levels every class subgraph has
//     arboricity below the constant C, and iterated Linial along the
//     inherited orientation finishes with an O(C^2) palette per class.
//   - Palette blocks: classes get disjoint blocks (the paper's color-string
//     prefixes), and R's block follows H's, for a total of
//     O((3+eps)^{log_C a} * a * C^2) = O(a^{1+eta}) colors with
//     eta = O(1/log C).
//
// The paper invokes [5]'s Procedure Legal-Coloring for R and a defective
// coloring inside Procedure Partial-Orientation; both are replaced by the
// machinery above, which preserves the loglog-in-n vertex-averaged shape
// and the n-independent palette (DESIGN.md, substitution 2).
package arbdefect

import (
	"math"

	"vavg/internal/coloring"
	"vavg/internal/hpartition"
)

// Params collects the knobs of One-Plus-Eta-Arb-Col.
type Params struct {
	// A is the arboricity bound passed to Procedure Partition.
	A int
	// Eps is the partition slack, in (0,2].
	Eps float64
	// C is the paper's "sufficiently large constant": recursion stops when
	// the class arboricity bound drops below C. Larger C means fewer
	// colors per level but a larger leaf palette.
	C int
}

// classK returns k = (3+eps)*C, the number of classes per level.
func (p Params) classK() int { return int(math.Ceil((3 + p.Eps) * float64(p.C))) }

// levels returns how many arbdefective levels run before the class bound
// drops below C, starting from out-degree bound b0.
func (p Params) levels(b0 int) int {
	k, l := p.classK(), 0
	for b := b0; b >= p.C; b = b / k {
		l++
	}
	return l
}

// classMsg announces a vertex's class choice at one arbdefective level.
type classMsg struct {
	Level  int32
	Path   int64 // class path before this level's choice
	Choice int32
}

const stageKind = 5

// StageBlock returns the palette block size of one stage: k^levels leaf
// classes times the O(C^2) leaf palette.
func StageBlock(n int, prm Params) int {
	k := prm.classK()
	A := hpartition.ParamA(prm.A, prm.Eps)
	block := coloring.LinialFinalPalette(n, prm.C)
	for l := 0; l < prm.levels(A); l++ {
		block *= k
	}
	return block
}

// Palette returns the total color budget of OnePlusEtaStep: two stage
// blocks.
func Palette(n int, prm Params) int { return 2 * StageBlock(n, prm) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LegalColoringWCPalette returns the color budget of LegalColoringWCStep: one
// stage block.
func LegalColoringWCPalette(n int, prm Params) int { return StageBlock(n, prm) }
