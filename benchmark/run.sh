#!/usr/bin/env bash
# Builds the benchmark from the source tree in the current directory and
# runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload train-oselm-64 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temp files, Go's own config) stays under
# $CARGO_TARGET_DIR, default .bench_build, in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/bin"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/bin/benchmark" ./benchmark
exec "$out/bin/benchmark" "$@"
