#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write (Go build cache, temp files, disk-cache blocks, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/sgfs-benchmark" ./benchmark
exec "$build/sgfs-benchmark" "$@"
