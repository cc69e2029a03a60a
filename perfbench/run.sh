#!/usr/bin/env bash
# Builds the benchmark program and tpsd from this checkout's sources, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tps-gen12k --seed 3 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

go build -o "$out/tpsd" ./cmd/tpsd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --tpsd "$out/tpsd" "$@"
