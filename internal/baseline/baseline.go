// Package baseline implements the classical worst-case algorithms the
// paper's tables compare against. Their vertex-averaged complexity equals
// (up to constants) their worst-case complexity, because every vertex
// stays active until a global round bound elapses — which is exactly the
// contrast the paper draws with its exponentially-decaying executions.
//
//   - ForestDecompositionWCStep: Procedure Forest-Decomposition of
//     Barenboim-Elkin (2008): all ell = O(log n) partition rounds first,
//     then orientation and labeling. Theta(log n) for every vertex.
//   - ArbLinialWCStep: the O(a^2 log^2 n)-coloring obtained from one Linial
//     step after the full decomposition (the worst-case counterpart of
//     Section 7.2), and IteratedArbLinialWCStep, its O(a^2) fixed-point
//     version (worst-case counterpart of Sections 7.3/7.6).
//   - ArbColorWCStep: the O(a)-coloring of [8] via a full bottom-up recoloring
//     wave, Theta(a log n) rounds (worst-case counterpart of 7.4/7.7).
//   - MISByColoringWCStep: deterministic MIS via the worst-case coloring plus
//     a color-class sweep (worst-case counterpart of Corollary 8.4).
//   - LubyMISStep: Luby's randomized MIS, the classical O(log n) w.h.p.
//     reference.
//   - Ring3ColoringStep: Cole-Vishkin 3-coloring of a ring, Theta(log* n) in
//     both measures (Feuilloley's negative example).
//   - LeaderElectionRingStep: Hirschberg-Sinclair-style leader election whose
//     output-commitment rounds average O(log n) against a Theta(n) worst
//     case (Feuilloley's positive example; commitment is reported in the
//     output because losers keep relaying, per Feuilloley's first
//     definition).
package baseline

import ()

const wcMISKind = 6

// LeaderOutput is the per-vertex result of LeaderElectionRingStep. The
// output-commitment rounds (Feuilloley's measure — losers keep relaying
// after committing, so termination rounds reflect the Theta(n) worst
// case) are reported through the engine's Result.CommitRounds.
type LeaderOutput struct {
	// Leader reports whether this vertex won.
	Leader bool
}
