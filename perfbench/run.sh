#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with every argument passed on, e.g.
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# each round's scratch stores stay in .bench_build inside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
