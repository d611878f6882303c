package randcolor

import (
	"vavg/internal/engine"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// Tentative candidate colors (randomly drawn palette offsets) travel on
// the fast lane as wire.TagTent; ALogLogStep interleaves them with
// partition joins on the same edges, which the tag keeps apart.

// startRandColor runs the Luby-style protocol over palette offsets
// [0, size) as a sub-machine. forbidden holds offsets owned by finished
// rivals; extra is invoked with every round's messages and must keep
// forbidden up to date (including rival Final announcements). rival says
// whether tentatives from the given neighbor index compete on this
// palette. The first round's coin flip and tentative broadcast happen
// immediately, within the caller's current turn; done receives the
// secured offset, proper against all rivals, in the turn it is secured,
// and produces the caller's continuation.
func startRandColor(api *engine.API, size int, forbidden map[int32]bool,
	rival func(nbrIdx int) bool, extra func([]engine.Msg),
	done func(int32) engine.Step) engine.Step {
	var cand int32
	draw := func(api *engine.API) {
		cand = -1
		if api.Rand().Intn(2) == 1 {
			free := make([]int32, 0, size)
			for c := int32(0); c < int32(size); c++ {
				if !forbidden[c] {
					free = append(free, c)
				}
			}
			if len(free) == 0 {
				panic("randcolor: palette exhausted (invariant violated)")
			}
			cand = free[api.Rand().Intn(len(free))]
			api.BroadcastInt(wire.Pack(wire.TagTent, int64(cand)))
		}
	}
	var loop engine.StepFn
	loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
		extra(inbox)
		conflict := false
		for _, m := range inbox {
			if x, ok := m.AsInt(); ok && wire.Tag(x) == wire.TagTent &&
				int32(wire.Payload(x)) == cand && rival(api.NeighborIndex(m.From)) {
				conflict = true
			}
		}
		if cand >= 0 && !conflict && !forbidden[cand] {
			return done(cand)
		}
		draw(api)
		return engine.Continue(loop)
	}
	draw(api)
	return engine.Continue(loop)
}

// DeltaPlus1Step is Procedure Rand-Delta-Plus1 (Section 9.2): each vertex
// colors itself from {0, ..., deg(v)}, yielding a (Delta+1)-coloring of
// the input graph with O(1) vertex-averaged complexity w.h.p. The
// per-vertex output is its color (int).
func DeltaPlus1Step() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				for _, m := range msgs {
					if f, ok := m.Data.(engine.Final); ok {
						if c, ok := finalColor(f.Output); ok {
							forbidden[c] = true
						}
					}
				}
			}
			return startRandColor(api, api.Degree()+1, forbidden,
				func(int) bool { return true }, extra,
				func(c int32) engine.Step { return engine.Done(int(c)) })
		}
	}
}

// ALogLogStep is the two-phase randomized O(a loglog n)-coloring of
// Section 9.3, with O(1) vertex-averaged complexity w.h.p. Phase 1 runs
// t = floor(2 loglog n) partition rounds; each H-set colors itself with
// the randomized protocol on its private (A+1)-color block as soon as it
// forms. Phase-2 vertices (only O(n / log^2 n) of them) finish the
// partition and color themselves from one shared block, each first
// waiting for its still-active and later-set neighbors to finalize, which
// resolves the sets in descending order exactly as in the paper. The flat
// output color is block*(A+1)+offset, at most (t+1)(A+1) = O(a loglog n)
// colors overall.
func ALogLogStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		A := hpartition.ParamA(a, eps)
		ell := hpartition.EllBound(n, eps)
		t := phase1T(n, ell)
		tr := hpartition.NewTracker(api, a, eps)

		finals := map[int]int32{} // neighbor index -> flat final color
		absorb := func(msgs []engine.Msg) {
			tr.Absorb(api, msgs)
			for _, m := range msgs {
				if f, ok := m.Data.(engine.Final); ok {
					if c, ok := finalColor(f.Output); ok {
						finals[api.NeighborIndex(m.From)] = c
					}
				}
			}
		}

		// Phase 1 sets color on their private block as soon as they settle.
		settle1 := func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			i := tr.HIndex
			base := int32(i-1) * int32(A+1)
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				absorb(msgs)
				for k, f := range finals {
					if tr.NbrH[k] == i && f >= base && f < base+int32(A+1) {
						forbidden[f-base] = true
					}
				}
			}
			return startRandColor(api, A+1, forbidden,
				func(k int) bool { return tr.NbrH[k] == i }, extra,
				func(c int32) engine.Step { return engine.Done(int(base + c)) })
		}

		// Phase 2: once joined, wait for every still-active or later-set
		// neighbor to finalize, then color on the shared block.
		base2 := int32(t) * int32(A+1)
		var waitReady engine.StepFn
		tryReady := func(api *engine.API) engine.Step {
			j := tr.HIndex
			ready := true
			for k, h := range tr.NbrH {
				if h != 0 && h <= j {
					continue
				}
				if _, done := finals[k]; !done {
					ready = false
					break
				}
			}
			if !ready {
				return engine.Continue(waitReady)
			}
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				absorb(msgs)
				for k, f := range finals {
					if tr.NbrH[k] > int32(t) && f >= base2 {
						forbidden[f-base2] = true
					}
				}
			}
			extra(nil)
			return startRandColor(api, A+1, forbidden,
				func(k int) bool { return tr.NbrH[k] > int32(t) }, extra,
				func(c int32) engine.Step { return engine.Done(int(base2 + c)) })
		}
		waitReady = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			return tryReady(api)
		}
		var phase2 engine.StepFn
		phase2 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			if tr.HIndex == 0 {
				tr.Advance(api)
				return engine.Continue(phase2)
			}
			return tryReady(api)
		}

		// Phase 1: t partition rounds; joiners settle one round, then color.
		var phase1 engine.StepFn
		phase1 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			if tr.HIndex != 0 {
				return engine.Continue(settle1)
			}
			if int32(api.Round()) < int32(t) {
				tr.Advance(api)
				return engine.Continue(phase1)
			}
			tr.Advance(api)
			return engine.Continue(phase2)
		}
		return phase1
	}
}
