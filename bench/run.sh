#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the arguments given, for example
#
#   bash bench/run.sh --workload cdn-stream --seed 7 --seconds 25 --trace 0
#
# Every file the toolchain and the benchmark write (build cache, spill
# files, the binary) stays under .bench_build/. The bench module replaces
# the dynamips module with the parent directory, so the build fails, and
# the script exits non-zero without a result, when bench/ is run without
# the rest of the repository.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/dynbench" .
exec "$build/dynbench" "$@"
