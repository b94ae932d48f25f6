#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload small-farms --seed 7 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, the traced runs' span files — stays under
# .bench_build/ in the current directory. Without the repository's module
# next to perfbench/ the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
