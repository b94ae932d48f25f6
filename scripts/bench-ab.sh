#!/usr/bin/env bash
# Runs the repository benchmark on a parent revision and on the working
# tree in alternating pairs on this host, and judges every metric with
# cmd/ampom-benchab:
#
#   bash scripts/bench-ab.sh BASE WORKLOAD [PAIRS] [SEED]
#
# Run from the repository root (`make bench-ab` does). BASE is any git
# revision; it is exported with `git archive` into a temporary directory,
# which is removed on exit, so the repository's .git is left as it was
# whatever ends the run. Pair i runs the parent first when i is even and
# the change first when i is odd, so each side leads in half the pairs.
# Every run is `bash perfbench/run.sh --workload WORKLOAD --seed SEED
# --seconds S --trace 0` in its own tree, where S is the run length
# BENCHMARK.json declares (run_seconds), and only its last line, the
# result JSON, is kept.
set -euo pipefail

usage="usage: bench-ab.sh BASE WORKLOAD [PAIRS] [SEED]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-9001}
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$seconds" ] || { echo "bench-ab: no run_seconds in BENCHMARK.json" >&2; exit 2; }

root=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# one DIR SIDE appends one run's result line to SIDE.jsonl.
one() {
	(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$tmp/$2.jsonl"
}

for ((i = 0; i < pairs; i++)); do
	echo "# pair $((i + 1)) of $pairs" >&2
	if ((i % 2 == 0)); then
		one "$tmp/base" base
		one "$root" change
	else
		one "$root" change
		one "$tmp/base" base
	fi
done

echo "# $workload, seed $seed, ${seconds}s runs: base $(git rev-parse --short "$base") against the working tree"
go run ./cmd/ampom-benchab BENCHMARK.json "$tmp/base.jsonl" "$tmp/change.jsonl"
