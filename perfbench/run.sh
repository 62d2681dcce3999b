#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
# One client goroutine and one tcad worker share two CPUs (README.md).
export GOMAXPROCS=2
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
