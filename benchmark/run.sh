#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives (cmd/deadd) from source and
# runs the benchmark. Run from the repository root:
#
#	bash benchmark/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind stays under .bench_build/
# in the current directory: the Go build cache, the binaries, and the
# benchmark's working files (disk tiers, span files).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$out/deadbench" .
go -C "$root" build -o "$out/deadd" ./cmd/deadd
exec "$out/deadbench" -work "$out/work" -deadd "$out/deadd" "$@"
