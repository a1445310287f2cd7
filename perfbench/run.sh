#!/usr/bin/env bash
# Builds qtag-server and the benchmark from source into .bench_build,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tag-beacons --seed 1 --seconds 36 --trace 0
#
# Every build artefact, cache and scratch file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/qtag-server" ./cmd/qtag-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
