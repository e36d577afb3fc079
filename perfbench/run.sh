#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
