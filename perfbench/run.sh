#!/usr/bin/env bash
# Builds the benchmark from the sources of the enclosing checkout and runs
# it with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload random-read --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, traces) goes to
# $CARGO_TARGET_DIR, by default .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
