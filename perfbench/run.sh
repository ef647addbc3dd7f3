#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload live-small --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build writes (binary, Go
# build cache, temporary files) goes under .bench_build/ in the checkout;
# the build never reaches the network.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
