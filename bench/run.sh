#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it there. The Go build cache, temp dir and (empty: stdlib only)
# module cache are kept inside .bench_build/ too, and the user's go env file
# is ignored, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/perdnn-bench" .)
cd "$root"
exec "$build/perdnn-bench" "$@"
