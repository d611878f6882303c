package vavg

import (
	gort "runtime"
	"runtime/debug"
	"testing"

	"vavg/internal/engine"
)

// allocBudget is the committed heap-allocation budget of one engine run of
// each registry algorithm, in allocations per vertex, on the graphs of
// TestRegistryAllocBudget. Each entry is the measured count plus at most
// 10% headroom, and the test enforces both sides: a run that allocates
// more fails, and so does a budget more than 10% above the measurement,
// which must then be lowered to keep the savings.
var allocBudget = map[string]float64{
	"a-loglog":              91.3,
	"a2-loglog":             34.8,
	"aloglog-rand":          26.9,
	"arbcolor-wc":           15.7,
	"arblinial-o1":          6.3,
	"arblinial-wc":          11.4,
	"deltaplus1-det":        87.2,
	"deltaplus1-rand":       11.6,
	"edgecolor":             136.9,
	"forest-decomp":         9.3,
	"forest-decomp-wc":      13.6,
	"general-partition":     10.0,
	"iterated-arblinial-wc": 21.8,
	"ka":                    104.8,
	"ka2":                   52.6,
	"leader-ring":           34.7,
	"legal-coloring-wc":     121.8,
	"matching":              81.0,
	"mis":                   85.1,
	"mis-luby":              10.6,
	"mis-wc":                31.3,
	"one-plus-eta":          140.7,
	"partition":             5.4,
	"ring-3color":           37.9,
}

// TestRegistryAllocBudget runs every registry algorithm once on its step
// form and gates its allocations per vertex against allocBudget. The run
// is made deterministic: the garbage collector is off (so the engine's
// pooled scratch cannot be dropped mid-run), two collections before the
// run empty that pool (so every run pays for its scratch, as a cold run
// does), and one P with four shards fixes the pool and lane behaviour
// while still routing deliveries through the cross-shard lanes.
func TestRegistryAllocBudget(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 4096
	forest, ring := ForestUnion(n, 3, 1), Ring(n)
	algs := Algorithms()
	for _, alg := range algs {
		g, a := forest, 3
		if ringOnly(alg) {
			g, a = ring, 2
		}
		p := Params{Arboricity: a, Seed: 1}.withDefaults(g)
		spec := alg.spec(p)
		opts := engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds, Backend: "step", StepShards: 4}
		gort.GC()
		gort.GC()
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		_, err := engine.RunSpec(g, spec, opts)
		gort.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		got := float64(after.Mallocs-before.Mallocs) / float64(g.N())
		budget, ok := allocBudget[alg.Name]
		t.Logf("%-24s %8.3f allocs/vertex (budget %.3f)", alg.Name, got, budget)
		switch {
		case !ok:
			t.Errorf("%s: no allocation budget; measured %.3f allocs/vertex", alg.Name, got)
		case got > budget:
			t.Errorf("%s: %.3f allocs/vertex exceeds the budget of %.3f", alg.Name, got, budget)
		case budget > 1.10*got:
			t.Errorf("%s: budget %.3f is more than 10%% above the measured %.3f allocs/vertex; lower it", alg.Name, budget, got)
		}
	}
	// Every algorithm has an entry, so equal sizes leave no stale ones.
	if len(allocBudget) != len(algs) {
		t.Errorf("allocation budget has %d entries for %d registry algorithms", len(allocBudget), len(algs))
	}
}
