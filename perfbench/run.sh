#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#	bash perfbench/run.sh --workload batch-cddb --seed 42 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/: the
# Go build cache, the binary, the benchmark's scratch corpora and durable
# directories, and trace files.
set -euo pipefail

mkdir -p .bench_build
build="$(cd .bench_build && pwd)"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build" "$@"
