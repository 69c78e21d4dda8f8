#!/usr/bin/env bash
# Builds icgbench from the sources of the checkout it is run from and runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload fleet_realtime --seed 1 --seconds 8 --trace 0
#
# Every build product (compiler cache, binary, temp files) and every file
# the benchmark writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOPROXY=off
(cd "$root/bench" && go build -o "$out/icgbench" ./icgbench)
exec "$out/icgbench" -workdir .bench_build/work "$@"
