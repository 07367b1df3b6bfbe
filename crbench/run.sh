#!/usr/bin/env bash
# Builds the benchmark and the crossroads-serve binary it drives from the
# source in this checkout, then runs the benchmark with the given flags:
#
#   bash crbench/run.sh --workload single --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# inside .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/crossroads-serve" ./cmd/crossroads-serve
(cd crbench && go build -o "$out/crbench" .)
exec "$out/crbench" -serve-bin "$out/crossroads-serve" "$@"
