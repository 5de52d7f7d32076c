#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload mem-k2-g0 --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (compiler cache, binary) goes under
# .bench_build/ in the checkout, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The commit goes into the report header. VCS stamping by the go command is
# off: it fails the build in a checkout whose parent directory is someone
# else's repository.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
