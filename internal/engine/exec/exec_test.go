package exec

import (
	"fmt"
	"reflect"
	gort "runtime"
	"sort"
	"testing"

	"vavg/internal/graph"
)

// withShards raises GOMAXPROCS to n for the test, which gives the step
// driver at least n shards by default, so the cross-shard paths (staged
// lanes, message wakes, pending drains) are exercised even on single-core
// test machines.
func withShards(t *testing.T, n int) {
	t.Helper()
	old := gort.GOMAXPROCS(n)
	t.Cleanup(func() { gort.GOMAXPROCS(old) })
}

// The synthetic programs cover the scheduling-relevant behaviors: dense
// flooding, long idle windows, mid-window message arrival, termination
// waves, randomized idling, and commitment.
func testPrograms() map[string]Program {
	return map[string]Program{
		"flood": func(api *API) any {
			best := api.ID()
			for i := 0; i < 4; i++ {
				api.Broadcast(best)
				for _, m := range api.Next() {
					if v, ok := m.Data.(int); ok && v > best {
						best = v
					}
				}
			}
			return best
		},
		"idle-mod": func(api *API) any {
			api.Idle(api.ID() % 17)
			return api.ID()
		},
		"idle-rand": func(api *API) any {
			api.Idle(api.Rand().Intn(9))
			return api.Rand().Int63()
		},
		"send-then-idle": func(api *API) any {
			// Low-ID vertices broadcast into their neighbors' idle windows
			// at staggered rounds; everyone idles for a long window and
			// must collect exactly the mid-window traffic.
			if api.ID()%3 == 0 {
				api.Idle(api.ID() % 5)
				api.Broadcast(api.ID())
			}
			got := 0
			for _, m := range api.Idle(12) {
				if _, ok := m.Data.(int); ok {
					got++
				}
			}
			return got
		},
		"mixed-lanes": func(api *API) any {
			// Exercises both payload lanes and the broadcast write-through
			// against the flat outbox: staged sends cancelled by a broadcast,
			// a broadcast partially overridden by a later send, double
			// broadcasts, alternating lanes across neighbors, and lane
			// traffic into idle windows. Message counts must stay identical
			// across backends through all of it.
			deg := api.Degree()
			var sum int64
			// Staged fast-lane sends superseded by a general-lane broadcast.
			for k := 0; k < deg; k++ {
				api.SendInt(k, int64(1000+k))
			}
			api.Broadcast("bc")
			for _, m := range api.Next() {
				if s, ok := m.Data.(string); ok && s == "bc" {
					sum++
				}
				if _, ok := m.AsInt(); ok {
					sum += 1 << 20 // cancelled sends must never arrive
				}
			}
			// Alternating lanes across neighbors in one round.
			for k := 0; k < deg; k++ {
				if k%2 == 0 {
					api.SendInt(k, int64(k+1))
				} else {
					api.Send(k, k+1)
				}
			}
			for _, m := range api.Next() {
				if x, ok := m.AsInt(); ok {
					sum += x
				} else if v, ok := m.Data.(int); ok {
					sum += int64(v)
				}
			}
			// Double broadcast (second write-through overwrites the first),
			// then a single staged send overriding one slot of it.
			//lint:ignore wiretag deliberate raw negative payload exercising lane equivalence, not a wire.Pack word
			api.BroadcastInt(-7)
			api.BroadcastInt(int64(api.ID()))
			if deg > 0 {
				api.Send(0, "override")
			}
			for _, m := range api.Next() {
				if x, ok := m.AsInt(); ok {
					sum += x
				}
				if s, ok := m.Data.(string); ok && s == "override" {
					sum += 5000
				}
			}
			// Lane traffic into staggered idle windows.
			if api.ID()%4 == 0 {
				api.BroadcastInt(int64(api.ID() + 1))
			}
			for _, m := range api.Idle(2 + api.ID()%3) {
				if x, ok := m.AsInt(); ok {
					sum += x
				}
			}
			return sum
		},
		"commit-relay": func(api *API) any {
			if api.ID()%2 == 0 {
				api.Commit()
			}
			api.Idle(3 + api.ID()%4)
			return api.Round()
		},
		"termination-wave": func(api *API) any {
			// Vertex 0 terminates immediately; everyone else terminates one
			// round after first hearing a Final, propagating a wave.
			if api.ID() == 0 {
				return 0
			}
			for {
				for _, m := range api.Next() {
					if f, ok := m.Data.(Final); ok {
						return f.Output.(int) + 1
					}
				}
			}
		},
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring":    graph.Ring(64),
		"path":    graph.Path(33),
		"star":    graph.Star(40),
		"forests": graph.ForestUnion(150, 3, 7),
		"gnm":     graph.Gnm(90, 260, 5),
		"tree":    graph.RandomTree(77, 3),
	}
}

// sortedNames returns m's keys in ascending order, so test subcases run in
// a deterministic sequence regardless of map-iteration order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// dual bundles the blocking and the step form of the named synthetic
// program.
func dual(pname string) Spec {
	return Spec{Program: testPrograms()[pname], Step: stepTestPrograms()[pname]}
}

// runBoth runs spec under both backend names: the goroutines reference on
// the blocking form first, then the step driver on the step form.
func runBoth(t *testing.T, g *graph.Graph, spec Spec, cfg Config) (*Result, *Result) {
	t.Helper()
	var res [2]*Result
	for i, name := range Names() {
		r, err := RunSpec(g, spec, name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res[i] = r
	}
	return res[0], res[1]
}

func requireEqualResults(t *testing.T, label string, ra, rb *Result) {
	t.Helper()
	if !reflect.DeepEqual(ra.Rounds, rb.Rounds) {
		t.Errorf("%s: Rounds differ:\n %v\n %v", label, ra.Rounds, rb.Rounds)
	}
	if !reflect.DeepEqual(ra.CommitRounds, rb.CommitRounds) {
		t.Errorf("%s: CommitRounds differ", label)
	}
	if !reflect.DeepEqual(ra.Output, rb.Output) {
		t.Errorf("%s: Outputs differ", label)
	}
	if !reflect.DeepEqual(ra.ActivePerRound, rb.ActivePerRound) {
		t.Errorf("%s: ActivePerRound differ:\n %v\n %v", label, ra.ActivePerRound, rb.ActivePerRound)
	}
	if ra.TotalRounds != rb.TotalRounds || ra.RoundSum != rb.RoundSum || ra.Messages != rb.Messages {
		t.Errorf("%s: totals differ: (%d,%d,%d) vs (%d,%d,%d)", label,
			ra.TotalRounds, ra.RoundSum, ra.Messages, rb.TotalRounds, rb.RoundSum, rb.Messages)
	}
}

// TestCrossBackendEquivalence runs every synthetic program under every
// backend name through RunSpec on a multi-shard layout: the goroutines
// reference and the step driver must agree byte for byte.
func TestCrossBackendEquivalence(t *testing.T) {
	withShards(t, 4)
	graphs := testGraphs()
	for _, gname := range sortedNames(graphs) {
		for _, pname := range sortedNames(testPrograms()) {
			for _, seed := range []int64{1, 42} {
				label := fmt.Sprintf("%s/%s/seed%d", gname, pname, seed)
				rg, rs := runBoth(t, graphs[gname], dual(pname), Config{Seed: seed})
				requireEqualResults(t, label, rg, rs)
			}
		}
	}
}

// TestScratchReuseIsClean exercises the sync.Pool run-scratch recycling:
// interleaved runs of different sizes and programs on both runners must
// reproduce the results of fresh first runs exactly, proving recycled
// cell slabs, done flags, and message counters carry no state between
// runs (shrinking reslices must zero the reused prefix).
func TestScratchReuseIsClean(t *testing.T) {
	withShards(t, 4)
	progs := testPrograms()
	graphs := testGraphs()
	// Fresh baselines, one per (graph, program).
	type cellKey struct{ g, p string }
	base := map[cellKey]*Result{}
	order := []cellKey{}
	for gname := range graphs {
		for pname := range progs {
			order = append(order, cellKey{gname, pname})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].g != order[j].g {
			return order[i].g < order[j].g
		}
		return order[i].p < order[j].p
	})
	cfg := Config{Seed: 13, MaxRounds: 1 << 20}
	for _, k := range order {
		rg, rs := runBoth(t, graphs[k.g], dual(k.p), cfg)
		requireEqualResults(t, "baseline/"+k.g+"/"+k.p, rg, rs)
		base[k] = rg
	}
	// Re-run the whole matrix twice more: every run now draws recycled
	// scratch whose previous occupant had a different size or program.
	for pass := 0; pass < 2; pass++ {
		for i := len(order) - 1; i >= 0; i-- {
			k := order[i]
			rg, rs := runBoth(t, graphs[k.g], dual(k.p), cfg)
			requireEqualResults(t, fmt.Sprintf("reuse%d/%s/%s vs step", pass, k.g, k.p), rg, rs)
			requireEqualResults(t, fmt.Sprintf("reuse%d/%s/%s vs fresh", pass, k.g, k.p), base[k], rg)
		}
	}
}
