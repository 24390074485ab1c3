#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run it
# from the repository root; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload serve-drift --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and the traced run's spans stay under
# .bench_build in the repository root. The module replaces the repository
# with ../, so the build fails (and nothing is run) outside a full checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
