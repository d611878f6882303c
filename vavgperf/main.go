// Command vavgperf is the benchmark of the vavg simulator. It runs one
// named workload: it builds the inputs from --seed, times the workload's
// unit (one Algorithm.Run, or one Sweep) for --seconds, checks every
// output, and prints a human-readable report followed, as the last line,
// by one JSON object with the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// gcPercent is the GOGC the benchmark runs with. At the default of 100 a
// faults-shuffled unit on 2^19 vertices ran three GC cycles, and where
// they landed against its live heap made the unit's GC CPU time vary
// between 0.12 and 0.38 s; that variation dominated the spread of wall_s
// between units. At 400 a unit runs about one cycle. GC cost still shows
// in the per-layer runtime.gc_* metrics, and allocation in the alloc
// metrics, which do not depend on GOGC.
const gcPercent = 400

func main() {
	cfg := config{scale: 1, setups: 5}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the inputs are built from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to time units, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced units and reports the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/vavgperf", "directory for graph files and the span dump")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "vavgperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	debug.SetGCPercent(gcPercent)
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vavgperf:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vavgperf:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
