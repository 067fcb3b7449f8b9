#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload leafspine-drill-80 --seed 1 --seconds 25 --trace 0
#
# Everything the Go command writes (build cache, module cache, telemetry,
# temporary files) and the binary stay in .bench_build/ at the repository
# root; nothing is fetched over the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

go -C "$here" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
