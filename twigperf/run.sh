#!/usr/bin/env bash
# Builds the twigperf benchmark from this source tree and runs it with the
# given arguments, from the root of the tree:
#
#   bash twigperf/run.sh --workload read-warm --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) under the root, so nothing is written outside the tree.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/twigperf" && go build -o "$out/twigperf" .) >&2
cd "$root"
exec "$out/twigperf" "$@"
