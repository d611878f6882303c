package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBackendBenchJSON checks the BENCH_engine.json artifact shape: the
// JSON mode must emit a parseable BackendBench covering every (family,
// algorithm) cell with sane step-driver measurements.
func TestBackendBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("backend bench is not short")
	}
	var sb strings.Builder
	cfg := Config{JSON: true, W: &sb, Sizes: []int{192}, Seeds: []int64{3}}
	if err := runBackends(cfg); err != nil {
		t.Fatal(err)
	}
	var bench BackendBench
	if err := json.Unmarshal([]byte(sb.String()), &bench); err != nil {
		t.Fatalf("backends JSON does not parse: %v", err)
	}
	want := len(backendFamilies) * len(backendAlgs)
	if len(bench.Points) != want {
		t.Fatalf("got %d points, want %d", len(bench.Points), want)
	}
	for _, pt := range bench.Points {
		if pt.Backend != "step" {
			t.Errorf("point %s/%s ran on %q, want the step driver", pt.Algorithm, pt.Family, pt.Backend)
		}
		if pt.RoundSum <= 0 || pt.TotalRounds <= 0 || pt.WallMs <= 0 || pt.PeakBytes == 0 {
			t.Errorf("degenerate point %+v", pt)
		}
	}
	if bench.GoMaxProcs <= 0 || bench.GoVersion == "" {
		t.Errorf("missing environment metadata: %+v", bench)
	}
}

// TestBackendBenchSweepTimings checks the serial-vs-parallel artifact
// rows: a multi-worker run must record a serial (workers=1) baseline plus
// one parallel entry at the configured count, with speedup relative to
// the baseline; a one-worker run must omit the section entirely.
func TestBackendBenchSweepTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("backend bench is not short")
	}
	cfg := Config{Sizes: []int{160}, Seeds: []int64{3}, Workers: 4}.withDefaults()
	bench, err := RunBackendBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bench.NumCPU <= 0 {
		t.Errorf("NumCPU = %d, want > 0", bench.NumCPU)
	}
	if len(bench.SweepTimings) != 2 {
		t.Fatalf("got %d sweep timings, want 2: %+v", len(bench.SweepTimings), bench.SweepTimings)
	}
	serial, par := bench.SweepTimings[0], bench.SweepTimings[1]
	if serial.Workers != 1 || serial.Speedup != 1 {
		t.Errorf("serial baseline = %+v, want workers=1 speedup=1", serial)
	}
	if par.Workers != 4 || par.WallMs <= 0 || par.Speedup <= 0 {
		t.Errorf("parallel entry = %+v, want workers=4 with positive wall and speedup", par)
	}

	cfg.Workers = 1
	bench, err = RunBackendBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.SweepTimings) != 1 || bench.SweepTimings[0].Workers != 1 {
		t.Errorf("one-worker run recorded %+v, want just the serial entry", bench.SweepTimings)
	}
}

// TestExperimentsParallelMatchesSerial renders every experiment with the
// scheduler serial and with eight workers; the outputs must be
// byte-identical. This is the experiments-level half of the determinism
// contract (vavg.Sweep has the registry-level half).
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment equivalence run is not short")
	}
	for _, e := range All() {
		if e.ID == "backends" || e.ID == "multicore" || e.ID == "outofcore" || e.ID == "locality" {
			continue // wall-clock measurements are never byte-stable
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var outs [2]string
			for i, workers := range []int{1, 8} {
				var sb strings.Builder
				if err := e.Run(Config{Quick: true, W: &sb, Workers: workers}); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				outs[i] = sb.String()
			}
			if outs[0] != outs[1] {
				t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", outs[0], outs[1])
			}
		})
	}
}
