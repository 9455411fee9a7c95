#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root, for example:
#
#   bash tpcwbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache go under .bench_build/ in the
# current directory; the first build compiles the standard library too.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters, its
# env file) inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$bench_dir" && go build -o "$out/tpcwbench" .) >&2
exec "$out/tpcwbench" "$@"
