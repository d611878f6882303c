package coloring

import (
	"vavg/internal/engine"
	"vavg/internal/wire"
)

// Sink consumes messages that a coloring subroutine receives but does not
// itself understand (Join announcements, terminations, foreign traffic).
// Composed algorithms pass their partition tracker's Absorb here so that
// active-degree accounting stays correct while a subroutine runs.
type Sink func(msgs []engine.Msg)

// NopSink ignores stray messages.
func NopSink([]engine.Msg) {}

// Color messages travel on the engine's integer fast lane. A "color"
// message (wire.TagColor) announces the sender's current color within a
// coloring subroutine instance, with the step number disambiguating
// pipelined instances; a "chosen" message (wire.TagChosen) announces a
// final (or phase-final) color choice under an algorithm-specific kind
// namespace.

// BroadcastChosen announces a final (or phase-final) color choice to all
// neighbors on the fast lane. Kind is the caller's namespace, keeping
// concurrent subroutines of composed algorithms apart.
func BroadcastChosen(api *engine.API, kind, c int32) {
	api.BroadcastInt(wire.Pack(wire.TagChosen, wire.Pair(kind, c)))
}

// AsChosen decodes a chosen-color announcement in the given kind
// namespace; ok is false for any other message.
func AsChosen(m engine.Msg, kind int32) (c int32, ok bool) {
	x, isInt := m.AsInt()
	if !isInt || wire.Tag(x) != wire.TagChosen || wire.PairHi(wire.Payload(x)) != kind {
		return 0, false
	}
	return wire.PairLo(wire.Payload(x)), true
}

func broadcastColor(api *engine.API, step int, c int) {
	api.BroadcastInt(wire.Pack(wire.TagColor, wire.Pair(int32(step), int32(c))))
}

func asColor(m engine.Msg) (step int, c int, ok bool) {
	x, isInt := m.AsInt()
	if !isInt || wire.Tag(x) != wire.TagColor {
		return 0, 0, false
	}
	p := wire.Payload(x)
	return int(wire.PairHi(p)), int(wire.PairLo(p)), true
}

// memberSet answers "is this sender part of my subroutine instance".
type memberSet struct {
	idx map[int32]bool // neighbor IDs
}

func newMemberSet(api *engine.API, members []int) memberSet {
	ids := api.NeighborIDs()
	m := memberSet{idx: make(map[int32]bool, len(members))}
	for _, k := range members {
		m.idx[ids[k]] = true
	}
	return m
}

// IteratedLinialRounds returns the number of exchanges StartIteratedLinial
// performs for an n-vertex graph and out-degree bound A: one per reduction
// step except the last. This is O(log* n).
func IteratedLinialRounds(n, A int) int {
	steps := len(LinialSchedule(n, A)) - 1
	if steps <= 0 {
		return 0
	}
	return steps - 1
}

// kwPhases returns the palette sizes at the start of each KW halving
// phase, beginning at m and ending when the palette is at most A+1.
func kwPhases(m, A int) []int {
	var phases []int
	for m > A+1 {
		phases = append(phases, m)
		groups := (m + 2*(A+1) - 1) / (2 * (A + 1))
		m = groups * (A + 1)
	}
	return phases
}

// KWRounds returns the number of exchanges StartKWReduce performs when
// reducing a proper m-coloring to A+1 colors: O(A log(m/A)) — with
// m = O(A^2), O(A log A).
func KWRounds(m, A int) int {
	total := 0
	for range kwPhases(m, A) {
		total += 2 * (A + 1)
	}
	return total
}

const kwKind = 1

// DeltaPlus1Rounds returns the exchange count of StartDeltaPlus1OnSet for an
// n-vertex graph with within-set degree bound A: iterated Linial plus KW.
func DeltaPlus1Rounds(n, A int) int {
	return IteratedLinialRounds(n, A) + KWRounds(LinialFinalPalette(n, A), A)
}
