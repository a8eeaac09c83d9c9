#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The Go build cache, module cache and binary all live under
# .bench_build/ at the checkout root, so nothing outside the checkout is read
# or written; the first run in a fresh checkout compiles the standard library
# too (about a minute on two cores), later runs reuse the cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/tez-benchmark" .
exec "$build/tez-benchmark" "$@"
