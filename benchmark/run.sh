#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the checkout's root. Everything the build writes
# (binary and Go build cache) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
