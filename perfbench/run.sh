#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. perfbench is a Go module of its own
# that compiles against the repository's source one directory up (see
# go.mod). Everything the build and the run write stays under
# .bench_build/ in the checkout: the Go build cache, the binary, the
# run's data directories (removed at exit) and traced runs' span files.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
