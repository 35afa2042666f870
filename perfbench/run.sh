#!/usr/bin/env bash
# Builds the benchmark and cmd/sweepd from this checkout into .bench_build/
# and runs one workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload des-uniform32 --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the benchmark's last line of stdout is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporary files and telemetry in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/sweepd" ./cmd/sweepd >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
