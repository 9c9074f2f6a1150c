#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload wire-proposal --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. The Go build cache and the binary
# stay under .bench_build/ in that root, and nothing is fetched from the
# network. Build output goes to standard error, so the benchmark's own
# output is all that standard output carries.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
