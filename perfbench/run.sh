#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing on
# every argument. Run it from the repository root:
#
#   bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build (or
# $CARGO_TARGET_DIR) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
