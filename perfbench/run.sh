#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-sssp --seed 1 --seconds 10 --trace 0
#
# Everything it writes (build cache, binary, generated inputs, span
# files) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
