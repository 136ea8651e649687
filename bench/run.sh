#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run leave behind stays under .bench_build/
# (binary, Go build cache, temp files) and bench/out/ (reports, traces).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local
# bench/ is a module of its own (repro/bench) that replaces repro with the
# tree above it; the build output goes to stderr so stdout stays the run's.
go build -C "$here" -o "$build/trilliong-bench" . >&2
cd "$root"
exec "$build/trilliong-bench" "$@"
