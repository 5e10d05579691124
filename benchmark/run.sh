#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source into benchmark/out/.build/, then run it with the
# arguments given. Everything Go writes while building — its build
# cache, temporary files, module cache — is kept there as well, so a run
# reads and writes nothing outside the checkout and leaves nothing
# outside the one git-ignored directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/benchmark/out/.build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOENV=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
