#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it.
#
#   bash perfbench/run.sh --workload tomo-1m --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# trace files stay under $CARGO_TARGET_DIR (default .bench_build), so the
# run reads and writes nothing outside the checkout.
set -euo pipefail

root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
