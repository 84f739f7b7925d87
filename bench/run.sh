#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it from there; every argument goes to the program. The Go build
# cache is kept in .bench_build/ too, so a run reads and writes nothing
# outside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/ownbench" .
cd "$root"
exec "$build/ownbench" "$@"
