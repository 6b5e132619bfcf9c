#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build writes (binary, Go build cache, temporary files, the
# toolchain's own counters) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
GOENV=off XDG_CONFIG_HOME="$build/config" go build -C "$root/bench" -o "$build/candle-bench" .
exec "$build/candle-bench" "$@"
