#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through. Run from the repository root:
#
#   bash ravenbench/run.sh --workload fleet-bare --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ so the run
# reads and writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd ravenbench && go build -o "$out/ravenbench" .)
exec "$out/ravenbench" "$@"
