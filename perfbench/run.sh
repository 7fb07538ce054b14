#!/usr/bin/env bash
# Builds the benchmark and the delta-server binary from this checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload analytic-sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the trace files stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; progress goes to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/delta-server" ./cmd/delta-server
exec "$out/perfbench" -server-bin "$out/delta-server" -out "$out" "$@"
