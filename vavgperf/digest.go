package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"vavg"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// digest is a SHA-256 over a canonical encoding, printed as hex.
type digest string

// encoder batches the canonical bytes into the hash, since a Result
// digest covers millions of small fields.
type encoder struct {
	h   hash.Hash
	buf []byte
}

func newEncoder() *encoder { return &encoder{h: sha256.New(), buf: make([]byte, 0, 1<<16)} }

func (e *encoder) i64(x int64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(x))
	if len(e.buf) >= 1<<16 {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *encoder) str(s string) {
	e.i64(int64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) sum() digest {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
	return digest(hex.EncodeToString(e.h.Sum(nil)))
}

// encodeReport writes the measures of one run. StepShards is left out:
// it is layout provenance, and Results are invariant in it.
func encodeReport(e *encoder, r vavg.Report) {
	e.str(r.Algorithm)
	e.str(r.Graph)
	for _, x := range []int64{int64(r.N), int64(r.M), int64(r.Arbor), r.Seed,
		int64(math.Float64bits(r.VertexAvg)), int64(r.WorstCase), r.RoundSum, r.Messages,
		int64(r.Colors), int64(r.Size), r.Dropped, r.LostToCrash,
		int64(r.CrashedForever), int64(r.Restarts), int64(r.ResidualConflicts)} {
		e.i64(x)
	}
	if r.Converged {
		e.i64(1)
	} else {
		e.i64(0)
	}
	e.i64(int64(len(r.ActivePerRound)))
	for _, a := range r.ActivePerRound {
		e.i64(int64(a))
	}
}

// reportDigest is the digest of one Algorithm.Run: what the untraced
// unit can see, so it is what traced and untraced units must agree on.
func reportDigest(r vavg.Report) digest {
	e := newEncoder()
	encodeReport(e, r)
	return e.sum()
}

// sweepDigest is the digest of one Sweep's result.
func sweepDigest(s *vavg.SweepResult) digest {
	e := newEncoder()
	e.str(s.Algorithm)
	e.str(s.Family)
	e.i64(int64(len(s.Points)))
	for _, p := range s.Points {
		for _, x := range []int64{int64(p.N), int64(p.M), int64(math.Float64bits(p.VertexAvg)),
			int64(p.WorstCase), int64(p.Colors), int64(p.Size), p.Messages} {
			e.i64(x)
		}
	}
	return e.sum()
}

// resultDigest is the digest of an engine Result's per-vertex round
// counts and outputs: the full observable outcome of a run, which only
// the traced path (built on engine.RunSpec) can see.
func resultDigest(res *engine.Result) (digest, error) {
	e := newEncoder()
	e.i64(int64(len(res.Rounds)))
	for _, r := range res.Rounds {
		e.i64(int64(r))
	}
	for v, o := range res.Output {
		switch x := o.(type) {
		case nil:
			e.i64(0)
		case int:
			e.i64(1)
			e.i64(int64(x))
		case bool:
			e.i64(2)
			if x {
				e.i64(1)
			} else {
				e.i64(0)
			}
		case hpartition.Join:
			e.i64(3)
			e.i64(int64(x.Index))
		default:
			return "", fmt.Errorf("vertex %d output %T has no canonical encoding", v, o)
		}
	}
	return e.sum(), nil
}
