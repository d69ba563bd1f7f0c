#!/usr/bin/env bash
# Parent-vs-change performance gate over the repository benchmark.
#
#   scripts/perf_gate.sh <base-rev> [pairs] [out]
#
# Builds perfbench (see perfbench/README.md) twice: in a temporary
# `git worktree` of <base-rev>, the parent, and in the working tree, the
# change. Then, for every workload in BENCHMARK.json, it runs `pairs`
# (default 10) parent/change pairs of `run_seconds` each. Both runs of a
# pair use the same seed (the pair's number), and the side that runs first
# alternates from pair to pair, so a drift in host speed falls on both
# sides alike. Each side runs in its own tree's root, so index files land
# on the same filesystem for both.
#
# The change is recorded as `git rev-parse HEAD` plus `+dirty` when the
# working tree differs from it, read before anything is built. Building
# perfbench rewrites the committed perfbench/Cargo.lock, so on exit the
# script puts that file back in both trees as it found it.
#
# Writes `out` (default BENCH_PR.json; name it BENCH_PR<n>.json for the
# change it measures): per workload, the run header of each side, the
# seeds, and for every end-to-end metric of BENCHMARK.json the median and
# quartiles of each side, the change/parent median ratio, the bound,
# whether it held, and whether the parent's own spread (interquartile
# range over median) is wider than the bound, which leaves it unresolved.
#
# Exits 1 if any change median is worse than the parent's by more than
# the metric's bound, if any run reports `correct: false` (or prints no
# result), or if the change's median `ok_share` is below the parent's;
# exits 2 on a usage or build error.
set -euo pipefail

usage() {
    echo "usage: scripts/perf_gate.sh <base-rev> [pairs] [out]" >&2
    exit 2
}
[ $# -ge 1 ] && [ $# -le 3 ] || usage
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}") || usage
pairs=${2:-10}
out=${3:-BENCH_PR.json}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
cd "$root"
spec=BENCHMARK.json
seconds=$(jq -r '.run_seconds' "$spec")

work=$root/.perf_gate
tree=$work/base
runs=$work/runs.jsonl
# Lock files kept by keep_lock: where each lives, and its saved copy.
lock_paths=()
lock_saved=()
keep_lock() {
    lock_paths+=("$1/perfbench/Cargo.lock")
    lock_saved+=("$work/Cargo.lock.${#lock_saved[@]}")
    cp "${lock_paths[-1]}" "${lock_saved[-1]}"
}
cleanup() {
    local i
    for i in "${!lock_paths[@]}"; do
        cp "${lock_saved[$i]}" "${lock_paths[$i]}" || true
    done
    git -C "$root" worktree remove --force "$tree" 2> /dev/null || true
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$work"
mkdir -p "$work"
change=$(git rev-parse HEAD)$(git diff --quiet HEAD -- . ':!'"$out" || echo '+dirty')
git worktree add --detach --quiet "$tree" "$base"
keep_lock "$tree"
keep_lock "$root"

build() {
    (cd "$1" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml) \
        || { echo "perf_gate: perfbench does not build in $1" >&2; exit 2; }
}
build "$tree"
build "$root"

# run <side> <dir> <workload> <seed>: one run, appended to $runs as
# {side, workload, seed, header, correct, metrics}.
run() {
    local log=$work/$1.log
    (cd "$2" && ./perfbench/target/release/perfbench --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0) > "$log" 2> "$work/$1.err" || true
    local result
    result=$(tail -n1 "$log" | jq -c 'select(type == "object")' 2> /dev/null || true)
    jq -cn --arg side "$1" --arg w "$3" --argjson seed "$4" \
        --arg header "$(grep -m1 '^# perfbench' "$log" || true)" \
        --argjson result "${result:-null}" \
        '{side: $side, workload: $w, seed: $seed, header: $header,
          correct: ($result.correct == true), metrics: ($result.metrics // {})}' >> "$runs"
    echo "perf_gate: $3 seed $4 $1: $(tail -n1 "$runs" | jq -r 'if .correct then "ok" else "NOT CORRECT" end')" >&2
}

for w in $(jq -r '.workloads[].name' "$spec"); do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$tree" "$w" "$seed"
            run change "$root" "$w" "$seed"
        else
            run change "$root" "$w" "$seed"
            run parent "$tree" "$w" "$seed"
        fi
    done
done

jq -s --slurpfile spec "$spec" --arg base "$base" \
    --arg change "$change" \
    --argjson pairs "$pairs" --argjson seconds "$seconds" --arg nproc "$(nproc)" '
  # Quartiles by linear interpolation between order statistics.
  def q($p): sort as $v | ($v | length) as $n
    | if $n == 0 then null else (($n - 1) * $p) as $h | ($h | floor) as $i
      | $v[$i] + ($h - $i) * (($v[[$i + 1, $n - 1] | min]) - $v[$i]) end;
  def summary: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
  . as $runs
  | [$spec[0].workloads[].name] as $names
  | {
      base: $base, change: $change, pairs: $pairs, run_seconds: $seconds,
      nproc: ($nproc | tonumber),
      workloads: ([$names[] as $w
        | ($runs | map(select(.workload == $w))) as $rs
        | {key: $w, value: {
            header: ($rs | map({key: .side, value: .header}) | from_entries),
            seeds: ($rs | map(select(.side == "change") | .seed)),
            incorrect_runs: ($rs | map(select(.correct | not) | "\(.side) seed \(.seed)")),
            metrics: ([$spec[0].end_to_end[] as $m
              | [$rs[] | select(.side == "parent") | .metrics[$m.name].value | numbers] as $p
              | [$rs[] | select(.side == "change") | .metrics[$m.name].value | numbers] as $c
              | select(($p | length) > 0)
              | ($p | summary) as $ps | ($c | summary) as $cs
              | {key: $m.name, value: {
                  unit: $m.unit, better: $m.better, bound: $m.bound,
                  parent: $ps, change: $cs,
                  ratio: (if $cs.median == null or $ps.median == 0 then null
                          else $cs.median / $ps.median end),
                  # The parent runs spread wider than the bound: "held"
                  # then says no regression was seen, not that none exists.
                  unresolved: ($ps.median != 0
                               and ($ps.q3 - $ps.q1) / ($ps.median | fabs) > $m.bound),
                  held: ($cs.median != null
                         and (if $m.better == "lower"
                              then $cs.median <= $ps.median * (1 + $m.bound)
                              else $cs.median >= $ps.median * (1 - $m.bound) end)
                         and ($m.name != "ok_share" or $cs.median >= $ps.median))}}]
              | from_entries)}}]
        | from_entries)
    }
  | .failures = ([.workloads | to_entries[] | .key as $w
        | (.value.incorrect_runs[] | "\($w): \(.) reported correct: false"),
          (.value.metrics | to_entries[] | select(.value.held | not)
           | "\($w): \(.key) change median \(.value.change.median) vs parent \(.value.parent.median) (bound \(.value.bound), better \(.value.better))")])
  | .verdict = (if .failures == [] then "pass" else "fail" end)
' "$runs" > "$out"

jq -r '.failures[]' "$out" >&2
verdict=$(jq -r '.verdict' "$out")
echo "perf_gate: $verdict ($pairs pairs, $out)" >&2
[ "$verdict" = pass ]
