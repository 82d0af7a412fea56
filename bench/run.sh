#!/bin/bash
# Entry point named by BENCHMARK.json: builds ./bench and runs it with the
# arguments given, keeping everything the go tool writes (build cache,
# module path, temporary and configuration files) under .bench_build in
# the checkout. Run from the module root:
#
#   bash bench/run.sh --workload small_open --seed 1 --seconds 10 --trace 0
#
# `go run ./bench ...` is the same program with the go tool's default
# cache locations.
set -eu

if [ ! -f go.mod ] || [ ! -d cmd/alignd ]; then
    echo "bench/run.sh: run from the root of a checkout (go.mod and cmd/alignd are not here)" >&2
    exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
