#!/usr/bin/env bash
# Builds the benchmark and moused from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and configuration, and span traces
# stay under .bench_build (or $CARGO_TARGET_DIR when set) inside the
# checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/moused" mouse/cmd/moused
) >&2

exec "$out/perfbench" -moused "$out/moused" -out "$out" "$@"
