#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload oltp-write --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# traces stay under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
