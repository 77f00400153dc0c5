#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload branch-rc80 --seed 1 --seconds 24 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
