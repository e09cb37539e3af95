#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the current directory: the Go build cache, the binary,
# temporary stores and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off CGO_ENABLED=0

# Build output goes to stderr: the last line of stdout is the result.
go -C "$root/perfbench" build -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
