#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# repository root, passing every argument through (see bench/README.md):
#
#   bash bench/run.sh --workload translate-steady --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files and the binary stay under .bench_build/ in
# the checkout, and the toolchain is kept offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
