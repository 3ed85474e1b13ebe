#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build and the run write
# (Go build cache, temp files, spill files, traces) stays inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$here" build -o "$build/qppt-benchmark" .
cd "$root"
exec "$build/qppt-benchmark" "$@"
