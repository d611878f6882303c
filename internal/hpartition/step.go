package hpartition

import (
	"vavg/internal/engine"
)

// The partition programs. Each turn is one partition round: absorb the
// Join and Final announcements delivered since the previous turn, then
// join the current H-set if at most A neighbors are still active.

// StepProgram is standalone Procedure Partition: each vertex runs
// partition rounds until it joins an H-set and terminates with its Join
// (its H-index) as output. The Join announcement is carried by the
// engine's Final broadcast, so a vertex that joins in round i terminates
// in round i, matching the paper's accounting exactly.
func StepProgram(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		t := NewTracker(api, a, eps)
		var fn engine.StepFn
		fn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			t.Absorb(api, inbox)
			t.round++
			if t.activeDeg <= t.A {
				// Terminating output doubles as the Join announcement.
				return engine.Done(Join{Index: t.round})
			}
			return engine.Continue(fn)
		}
		return fn
	}
}

// GeneralStepProgram is a vertex-averaged variant of Procedure
// General-Partition from [8] (referenced in Section 6.1 for graphs whose
// arboricity is unknown): thresholds double across phases, so no a priori
// arboricity bound is needed. A vertex joining under the phase-i threshold
// has at most (2+eps)*2^i <= 4(2+eps)*a neighbors in later H-sets, so the
// output is an H-partition with parameter O(a), and the vertex-averaged
// complexity is O(log^2 a) — independent of n — against the classical
// Theta(log n) worst case. Each vertex outputs its GeneralJoin.
func GeneralStepProgram(eps float64) engine.StepProgram {
	if eps <= 0 || eps > 2 {
		panic("hpartition: eps must be in (0,2]")
	}
	return func(api *engine.API) engine.StepFn {
		activeDeg := api.Degree()
		seen := make(map[int32]bool, api.Degree())
		index := int32(0)
		phase := 1
		r := 0
		var fn engine.StepFn
		fn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			for _, m := range inbox {
				if _, ok := m.Data.(engine.Final); ok && !seen[m.From] {
					seen[m.From] = true
					activeDeg--
				}
			}
			if r == generalPhaseLen(phase, eps) {
				phase++
				r = 0
			}
			r++
			index++
			if activeDeg <= GeneralThreshold(phase, eps) {
				return engine.Done(GeneralJoin{Index: index, Phase: int32(phase)})
			}
			return engine.Continue(fn)
		}
		return fn
	}
}
