package baseline

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// startWCDecomp runs the worst-case forest decomposition inside a vertex
// machine: the full ell partition rounds (staying active throughout), one
// settle round, then local orientation and labeling. done runs in the
// settle turn.
func startWCDecomp(api *engine.API, a int, eps float64,
	done func(d *forest.Decomp) engine.Step) engine.Step {
	d := forest.NewDecomp(api, a, eps)
	return d.StartWC(api, hpartition.EllBound(api.N(), eps), func() engine.Step {
		return done(d)
	})
}

// ForestDecompositionWCStep is the classical Procedure
// Forest-Decomposition: the same output as forest.StepProgram, but every
// vertex runs Theta(log n) rounds.
func ForestDecompositionWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				return engine.Done(d.Output(api))
			})
		}
	}
}

// ArbLinialWCStep colors with one Linial step after the full worst-case
// decomposition: an O(a^2 log^2 n)-coloring in Theta(log n) rounds for
// every vertex.
func ArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				ids := api.NeighborIDs()
				parents := make([]int, len(d.OutIdx))
				for j, k := range d.OutIdx {
					parents[j] = int(ids[k])
				}
				return engine.Done(coloring.LinialStep(api.N(), d.Tr.A, api.ID(), parents))
			})
		}
	}
}

// IteratedArbLinialWCStep colors with the full iterated
// Arb-Linial-Coloring after the worst-case decomposition: an
// O(a^2)-coloring in Theta(log n + log* n) rounds for every vertex.
func IteratedArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				return coloring.StartIteratedLinial(api, d.OutIdx, d.Tr.A,
					func(ms []engine.Msg) { d.Tr.Absorb(api, ms) },
					func(c int) engine.Step { return engine.Done(c) })
			})
		}
	}
}

// ArbColorWCStep is Procedure Arb-Color of [8]: worst-case
// decomposition, then a bottom-up recoloring wave over the whole graph
// with the palette {0..A}: an O(a)-coloring in Theta(a log n) rounds for
// every vertex.
func ArbColorWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				parentFinal := map[int]int{}
				var wait engine.StepFn
				var check func(api *engine.API) engine.Step
				check = func(api *engine.API) engine.Step {
					ready := true
					for _, k := range d.OutIdx {
						if _, ok := parentFinal[k]; !ok {
							ready = false
							break
						}
					}
					if ready {
						used := map[int]bool{}
						for _, k := range d.OutIdx {
							used[parentFinal[k]] = true
						}
						for c := 0; ; c++ {
							if !used[c] {
								return engine.Done(c)
							}
						}
					}
					return engine.Continue(wait)
				}
				wait = func(api *engine.API, inbox []engine.Msg) engine.Step {
					for _, m := range inbox {
						if f, ok := m.Data.(engine.Final); ok {
							if c, ok := f.Output.(int); ok {
								parentFinal[api.NeighborIndex(m.From)] = c
							}
						}
					}
					return check(api)
				}
				return check(api)
			})
		}
	}
}

// MISByColoringWCStep computes an MIS deterministically via the
// worst-case O(a^2)-coloring followed by a full color-class sweep:
// Theta(log n + a^2) rounds for every vertex.
func MISByColoringWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				sink := func(ms []engine.Msg) { d.Tr.Absorb(api, ms) }
				return coloring.StartIteratedLinial(api, d.OutIdx, d.Tr.A, sink,
					func(c int) engine.Step {
						palette := coloring.LinialFinalPalette(api.N(), d.Tr.A)
						inMIS, dominated := false, false
						cls := 0
						var recv engine.StepFn
						send := func(api *engine.API) engine.Step {
							if cls == c && !dominated {
								inMIS = true
								coloring.BroadcastChosen(api, wcMISKind, 1)
							}
							return engine.Continue(recv)
						}
						recv = func(api *engine.API, inbox []engine.Msg) engine.Step {
							for _, m := range inbox {
								if _, ok := coloring.AsChosen(m, wcMISKind); ok {
									dominated = true
								}
							}
							cls++
							if cls == palette {
								return engine.Done(inMIS)
							}
							return send(api)
						}
						return send(api)
					})
			})
		}
	}
}

// LubyMISStep is Luby's randomized maximal independent set: O(log n)
// rounds w.h.p. Phases take two lockstep rounds: priorities are
// exchanged, local maxima join the MIS and terminate (their Final
// announces it), and dominated vertices terminate in the following round.
// Priorities are the only fast-lane traffic of the program, so they travel
// untagged with the full 63 random bits.
func LubyMISStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		var p int64
		var bestTurn, finalTurn engine.StepFn
		draw := func(api *engine.API) engine.Step {
			p = api.Rand().Int63()
			api.BroadcastInt(p)
			return engine.Continue(bestTurn)
		}
		bestTurn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			best := true
			for _, m := range inbox {
				if q, ok := m.AsInt(); ok {
					if q > p || (q == p && int(m.From) > api.ID()) {
						best = false
					}
				}
			}
			if best {
				return engine.Done(true)
			}
			return engine.Continue(finalTurn)
		}
		finalTurn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			// Learn which neighbors joined this phase.
			for _, m := range inbox {
				if f, ok := m.Data.(engine.Final); ok {
					if in, ok := f.Output.(bool); ok && in {
						return engine.Done(false)
					}
				}
			}
			return draw(api)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return draw(api)
		}
	}
}

// Ring3ColoringStep 3-colors a cycle generated by graph.Ring via
// Cole-Vishkin with the successor orientation: Theta(log* n) rounds for
// every vertex, matching Feuilloley's result that the vertex-averaged
// complexity of ring coloring cannot beat the worst case.
func Ring3ColoringStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			n := api.N()
			succ := (api.ID() + 1) % n
			k := api.NeighborIndex(int32(succ))
			parentIdx := []int{-1, k}
			return coloring.StartCVForests(api, 1, parentIdx, coloring.NopSink,
				func(cv []int32) engine.Step { return engine.Done(int(cv[1])) })
		}
	}
}

// LeaderElectionRingStep elects the maximum-ID vertex of a cycle using
// doubling-radius probes (Hirschberg-Sinclair). Per Feuilloley's first
// definition, a vertex commits its output the moment it learns it cannot
// be the leader — on average after O(log n) rounds over worst-case ID
// assignments — but keeps relaying until the leader's completion wave
// arrives, which takes Theta(n) rounds. The engine's round counts
// therefore reflect the worst case, while the reported CommitRound values
// realize the exponential average/worst-case gap of [12]. The program is
// port-based: it works on any 2-regular connected graph regardless of
// labeling (use graph.RingShuffled for a ring whose labels carry no
// positional information).
func LeaderElectionRingStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		if api.Degree() != 2 {
			panic("baseline: leader election requires a cycle")
		}
		left, right := 0, 1
		my := int32(api.ID())

		candidate := true
		phase := int32(0)
		replies := 0
		leader := false
		var outLeft, outRight []hsMsg

		launch := func() {
			hops := int32(1) << phase
			outLeft = append(outLeft, hsMsg{Kind: 0, ID: my, Hops: hops, Phase: phase})
			outRight = append(outRight, hsMsg{Kind: 0, ID: my, Hops: hops, Phase: phase})
			replies = 0
		}
		send := func(api *engine.API) {
			if len(outLeft) > 0 {
				api.Send(left, hsBatch{Msgs: outLeft})
			}
			if len(outRight) > 0 {
				api.Send(right, hsBatch{Msgs: outRight})
			}
			outLeft, outRight = nil, nil
		}
		end := func(api *engine.API, _ []engine.Msg) engine.Step {
			return engine.Done(LeaderOutput{Leader: leader})
		}
		var loop engine.StepFn
		loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
			done := false
			for _, m := range inbox {
				fromLeft := api.NeighborIndex(m.From) == left
				batch, ok := m.Data.(hsBatch)
				if !ok {
					continue
				}
				fwd := &outRight // continue travel away from arrival side
				back := &outLeft
				if !fromLeft {
					fwd, back = &outLeft, &outRight
				}
				for _, h := range batch.Msgs {
					switch h.Kind {
					case 0: // probe
						switch {
						case h.ID == my:
							// Our own probe circumnavigated: we are leader.
							leader, candidate = true, true
							api.Commit()
							*fwd = append(*fwd, hsMsg{Kind: 2, ID: my})
							done = true
						case h.ID > my:
							if candidate {
								candidate = false
								api.Commit()
							}
							if h.Hops > 1 {
								*fwd = append(*fwd, hsMsg{Kind: 0, ID: h.ID, Hops: h.Hops - 1, Phase: h.Phase})
							} else {
								*back = append(*back, hsMsg{Kind: 1, ID: h.ID, Phase: h.Phase})
							}
						default:
							// Smaller candidate: swallow the probe.
						}
					case 1: // reply
						if h.ID == my {
							if candidate && h.Phase == phase {
								replies++
							}
						} else {
							*fwd = append(*fwd, h)
						}
					case 2: // completion wave
						if h.ID != my {
							*fwd = append(*fwd, h)
							api.Commit()
							done = true
						}
					}
				}
			}
			if done {
				// Flush any last relayed messages (the completion wave) in
				// one final round before terminating.
				send(api)
				return engine.Continue(end)
			}
			if candidate && !leader && replies == 2 {
				phase++
				launch()
			}
			send(api)
			return engine.Continue(loop)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			launch()
			send(api)
			return engine.Continue(loop)
		}
	}
}
