#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload tpch-certain --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary) goes under $CARGO_TARGET_DIR, or .bench_build
# when that is unset, so nothing is written outside the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"

(cd "$bench_dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
