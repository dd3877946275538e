#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in (a non-race build of
# its own module, which imports the repository one directory up) and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload anneal-xl --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace dumps stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-mod"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
