#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays under .bench_build/ in the checkout: the Go build
# cache, temporary files, the binary and the default trace output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/qosbench" .)
exec "$build/qosbench" "$@"
