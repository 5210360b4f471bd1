#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout this
# script sits in and run it there with the given arguments. Everything
# the go tool writes (build cache, temporary files, its own state under
# $HOME) is pointed inside the checkout's .bench_build, so a run leaves
# nothing elsewhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/home"
export HOME=$build/home GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
