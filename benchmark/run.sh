#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on:
#
#   bash benchmark/run.sh --workload tcp-rmw --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache, the
# binary and the durable nodes' data under .bench_build/, traces under
# benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0
(cd benchmark && go build -o "$build/mdcc-benchmark" .)
exec "$build/mdcc-benchmark" "$@"
