#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, scratch files, traces) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
# No third-party modules: keep the module cache inside the checkout as well.
export GOPATH="$out/gopath"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out" "$@"
