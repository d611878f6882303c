package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one traced call into a layer: its name, its interval relative
// to the tracer's origin, the span that caused it (-1 for a unit's root),
// and the unit it belongs to. Counts carries the exact counters recorded
// at the same boundary.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Unit   int              `json:"unit"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write emits them once the benchmark ends.
// It is used from one goroutine.
type tracer struct {
	origin time.Time
	unit   int
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginUnit starts a new unit id; spans begun afterwards belong to it.
func (t *tracer) beginUnit() { t.unit++ }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Unit: t.unit})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("vavgperf: span %q closed out of order", t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// span runs f inside a span called name.
func (t *tracer) span(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// addChild records an already-measured span under span parent.
func (t *tracer) addChild(parent int, name string, start, end int64, counts map[string]int64) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Unit: t.unit, Counts: counts})
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union of their intervals, clipped to the
// parent).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, x := range iv {
			switch {
			case j == 0:
				curLo, curHi = x[0], x[1]
			case x[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			case x[1] > curHi:
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// unitSums totals, per unit, the duration (or self time, when self is
// non-nil) of every span called name. Units are keyed by id.
func unitSums(spans []span, self []int64, name string) map[int]int64 {
	out := map[int]int64{}
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if self != nil {
			out[s.Unit] += self[i]
		} else {
			out[s.Unit] += s.dur()
		}
	}
	return out
}

// unitCounts totals, per unit, counter key over every span called name.
func unitCounts(spans []span, name, key string) map[int]int64 {
	out := map[int]int64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Unit] += s.Counts[key]
		}
	}
	return out
}

// write emits the spans as JSON lines, each with its self time.
func (t *tracer) write(w io.Writer) error {
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		line := struct {
			span
			ID   int   `json:"id"`
			Self int64 `json:"self_ns"`
		}{s, i, self[i]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
