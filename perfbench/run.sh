#!/usr/bin/env bash
# Builds the df3 benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload fed-wire --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
# The runtime settings are pinned to Go's defaults for a 2-CPU host, so
# that a caller's environment cannot change GC pacing or parallelism
# between two runs being compared. No workload runs more than two
# compute goroutines.
export GOMAXPROCS=2 GOGC=100 GOMEMLIMIT=off GODEBUG=
exec "$out/perfbench" --scratch "$out" "$@"
