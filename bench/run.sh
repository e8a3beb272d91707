#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout. Everything the build and the run write (the Go
# build cache, temporary files, the binary, checkpoint and stream stores)
# stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload fig5-grid --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1 --out run.json      # all four workloads
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd bench && go build -o "$out/sfcbenchmark" .)
exec "$out/sfcbenchmark" "$@"
