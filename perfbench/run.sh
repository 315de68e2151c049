#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, for example
#
#	bash perfbench/run.sh --workload attest-long --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the Go
# build cache, the binary, temporary WAL directories) stays under
# .bench_build in that root.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOWORK=off
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/lofat-perfbench" .)
exec "$build/lofat-perfbench" "$@"
