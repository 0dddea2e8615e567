#!/usr/bin/env bash
# Builds arbd-server and the benchmark from source into .bench_build/ at the
# root of the checkout, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --seed 1                      # all four workloads
#   bash benchmark/run.sh --workload poll_dense --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives in .bench_build/ too, so nothing is read or written
# outside the checkout. In a directory without the repo's sources the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/arbd-server" ./cmd/arbd-server) >&2
(cd "$root/benchmark" && go build -o "$build/arbd-benchmark" .) >&2
cd "$root"
exec "$build/arbd-benchmark" -server "$build/arbd-server" "$@"
