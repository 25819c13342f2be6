#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload blast-reads --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# generated inputs all live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$build" "$@"
