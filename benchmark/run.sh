#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is BENCHMARK.json's
# command; arguments pass through to the program (see main.go).
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, the Go build cache, the toolchain's scratch.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# No module is downloaded (the only requirement is the enclosing repository,
# replaced by path in go.mod); make sure nothing tries.
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/gwbench" .)
cd "$root"
exec "$build/gwbench" "$@"
