package forest

import "vavg/internal/engine"

// The decomposition machines. A vertex takes one partition round per
// turn until it joins an H-set; the round after the join delivers the
// same-round joiners' announcements, and in the settle round that follows
// the vertex orients and labels its edges.

// Turn kinds of the Start machine.
const (
	phaseJoin    = uint8(iota) // absorb, then take another partition round
	phaseSettle1               // the join round's tail absorb
	phaseSettle2               // the settle round: orient, then done
)

// Start drives the decomposition as a sub-machine: the entry turn takes
// the first partition round, every
// following turn absorbs and takes another until the vertex joins, and the
// two post-join rounds (the join round's tail absorb, then the settle
// round) end with the orientation computed. done runs in the settle turn.
// One StepFn walks the three kinds of turns through d.phase, so the
// machine costs a single closure per vertex.
func (d *Decomp) Start(api *engine.API, done func() engine.Step) engine.Step {
	d.done = done
	d.next = d.turn
	return d.join(api)
}

// join takes one partition round; a vertex that joins settles over its
// next two turns.
func (d *Decomp) join(api *engine.API) engine.Step {
	if d.Tr.Advance(api) {
		d.phase = phaseSettle1
	}
	return engine.Continue(d.next)
}

// turn is Start's StepFn.
func (d *Decomp) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	d.Tr.Absorb(api, inbox)
	switch d.phase {
	case phaseJoin:
		return d.join(api)
	case phaseSettle1:
		d.phase = phaseSettle2
		return engine.Continue(d.next)
	default:
		d.computeOrientation(api)
		return d.done()
	}
}

// StartWC drives the worst-case schedule of the classical procedure
// (baseline.wcDecomp): partition rounds until the vertex joins, one merged
// sleep to the global bound ell, then the settle round. done runs in the
// settle turn.
func (d *Decomp) StartWC(api *engine.API, ell int, done func() engine.Step) engine.Step {
	settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		d.computeOrientation(api)
		return done()
	}
	var join engine.StepFn
	join = func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		if d.Tr.HIndex != 0 {
			// Idle to round ell and settle one round later; a single
			// sleep accumulates every absorb of the wait.
			k := ell + 1 - api.Round()
			if k < 1 {
				k = 1
			}
			return engine.Sleep(k, settle)
		}
		d.Tr.Advance(api)
		return engine.Continue(join)
	}
	d.Tr.Advance(api)
	return engine.Continue(join)
}

// StepProgram is standalone Procedure Parallelized-Forest-Decomposition:
// each vertex joins an H-set, settles, and terminates with its Output;
// its final broadcast carries the labels to the edge heads. A vertex
// joining in partition round i terminates in round i+2, so the
// vertex-averaged complexity is O(1) (Theorem 7.1). Every vertex shares
// one entry StepFn; its per-vertex state is created in the entry turn.
func StepProgram(a int, eps float64) engine.StepProgram {
	first := func(api *engine.API, _ []engine.Msg) engine.Step {
		d := NewDecomp(api, a, eps)
		return d.Start(api, func() engine.Step {
			return engine.Done(d.Output(api))
		})
	}
	return func(*engine.API) engine.StepFn { return first }
}
