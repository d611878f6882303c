#!/usr/bin/env bash
# Builds the vavgperf benchmark from this checkout and runs it, passing
# every argument through (see vavgperf/README.md). Run it from the
# repository root:
#
#   bash vavgperf/run.sh --workload rounds-forests --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, graph files and span dumps all live under
# .bench_build/vavgperf, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/vavgperf"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

cd "$root/vavgperf"
# VCS stamping records the commit in the binary; a checkout without a
# usable repository builds without it.
go build -o "$out/vavgperf" . 2>/dev/null || go build -buildvcs=false -o "$out/vavgperf" .
cd "$root"
exec "$out/vavgperf" --dir "$out" "$@"
