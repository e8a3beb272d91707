#!/usr/bin/env bash
# A/B comparison of a git revision (side a, the baseline) against the
# working tree (side b, the candidate), with this tree's benchmark code on
# both sides:
#
#   bash bench/ab.sh REV
#
# REV's files are exported with git archive (no network, and no worktree
# left in .git) into .bench_build/ab/base, this tree's bench/ and
# BENCHMARK.json are copied over them, and each side is built once. Ten
# pairs of runs of every workload, each run_seconds long, alternate which
# side runs first; pair i uses seed i on both sides. Results and logs stay
# in .bench_build/ab/ and are compared with bench --compare, whose verdict
# rule assumes ten pairs and which exits 3 on a regression.
set -euo pipefail
rev=${1:?usage: bench/ab.sh REV}
pairs=10
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/.bench_build/ab"
rm -rf "$work"
mkdir -p "$work/base" "$work/a" "$work/b" "$work/tmp"
git archive "$rev" | tar -x -C "$work/base"
rm -rf "$work/base/bench" "$work/base/BENCHMARK.json"
cp -R bench BENCHMARK.json "$work/base/"

export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$work/base/bench" && go build -o "$work/a.bin" .)
(cd bench && go build -o "$work/b.bin" .)

# side NAME BINARY SOURCE-ROOT SEED: one run of every workload, from its own
# source root.
side() {
	local out
	out="$work/$1/run-$(printf %02d "$4")"
	(cd "$3" && "$2" --seed "$4" --out "$out.json" >/dev/null 2>"$out.log")
}
for i in $(seq 1 "$pairs"); do
	echo "pair $i of $pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		side a "$work/a.bin" "$work/base" "$i"
		side b "$work/b.bin" "$root" "$i"
	else
		side b "$work/b.bin" "$root" "$i"
		side a "$work/a.bin" "$work/base" "$i"
	fi
done
"$work/b.bin" --compare "$work"/a/*.json "$work"/b/*.json
