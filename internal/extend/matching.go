package extend

import (
	"vavg/internal/engine"
	"vavg/internal/wire"
)

// Proposals (wire.TagPropose: "match with me") and acceptances
// (wire.TagAccept: "match confirmed") are payload-free fast-lane messages.
var (
	proposeMsg = wire.Pack(wire.TagPropose, 0)
	acceptMsg  = wire.Pack(wire.TagAccept, 0)
)

func hasTag(m engine.Msg, tag uint8) bool {
	x, ok := m.AsInt()
	return ok && wire.Tag(x) == tag
}

// matchState tracks whether this vertex is matched and to whom.
type matchState struct {
	partner int32 // -1 while unmatched
}

// serveProposals accepts at most one proposal from msgs if this vertex is
// still unmatched, preferring the lowest proposer ID.
func (st *matchState) serveProposals(api *engine.API, msgs []engine.Msg) {
	if st.partner >= 0 {
		return
	}
	best := int32(-1)
	for _, m := range msgs {
		if hasTag(m, wire.TagPropose) {
			if best < 0 || m.From < best {
				best = m.From
			}
		}
	}
	if best >= 0 {
		st.partner = best
		api.SendIDInt(int(best), acceptMsg)
	}
}

// recordAccept marks this vertex matched if head accepted its proposal.
func (st *matchState) recordAccept(msgs []engine.Msg, head int32) {
	for _, m := range msgs {
		if hasTag(m, wire.TagAccept) && m.From == head {
			st.partner = head
		}
	}
}

// Matching converts the outputs of a MaximalMatchingStep run to a partner
// slice suitable for check.MaximalMatching.
func Matching(outputs []any) []int32 {
	m := make([]int32, len(outputs))
	for v, o := range outputs {
		m[v] = o.(int32)
	}
	return m
}
