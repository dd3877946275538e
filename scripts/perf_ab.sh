#!/usr/bin/env bash
# A/B the end-to-end benchmark (perfbench/) between a git revision and the
# working tree:
#
#   scripts/perf_ab.sh <rev>          # or: make perf-ab PERF_AB_REV=<rev>
#
# Exports <rev> into a temporary directory and runs each side with that
# tree's own perfbench/run.sh (a non-race build, its Go caches kept under a
# per-side temporary CARGO_TARGET_DIR) on every seed, at perfbench's own
# run length. It prints the change/parent ratio of each end-to-end metric
# per seed and its geometric mean over the seeds (below 1 is lower in the
# working tree).
#
# anneal-xl and anneal-batch keep one goroutine busy, so on each seed the
# two builds run side by side and see the same host speed. The other
# workloads use every core; they run one after the other, the order
# alternating from seed to seed. perfbench/ is only read.
#
# Environment: PERF_AB_WORKLOADS (default: all four workloads),
# PERF_AB_SEEDS (default "601 602 603"; keep the held-out seed 9001 for a
# final check).
set -euo pipefail

rev=${1:?usage: scripts/perf_ab.sh <rev>}
workloads=${PERF_AB_WORKLOADS:-anneal-xl anneal-batch bandit-medium serve-mix}
seeds=${PERF_AB_SEEDS:-601 602 603}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/out
mkdir -p "$out" "$tmp/parent"

# An exported tree, not a worktree: an interrupted run leaves nothing
# registered in the repository.
git -C "$root" archive "$sha" | tar -x -C "$tmp/parent"

# perfbench <side> <args>: perfbench/run.sh of that side's tree.
perfbench() {
    local side=$1 tree=$root
    shift
    [ "$side" = parent ] && tree=$tmp/parent
    (cd "$tree" && CARGO_TARGET_DIR="$tmp/build-$side" bash perfbench/run.sh "$@")
}

# Build both sides up front (-h builds, prints the usage and exits), so no
# cold build overlaps the other side's measured run.
for side in parent change; do
    if ! perfbench "$side" -h >"$tmp/build-$side.log" 2>&1; then
        cat "$tmp/build-$side.log" >&2
        echo "perf-ab: building perfbench ($side) failed" >&2
        exit 1
    fi
done

run() { # <side> <workload> <seed>
    perfbench "$1" --workload "$2" --seed "$3" --trace 0 >"$out/$2-$3-$1.txt"
}

# metrics <file>: "name value" per end-to-end metric of the result line.
metrics() {
    tail -n 1 "$1" | grep -o '"[a-z0-9_.]*":{"value":[-0-9.eE+]*' |
        sed 's/^"\([^"]*\)":{"value":/\1 /'
}

echo "perf-ab: parent $(git -C "$root" rev-parse --short "$sha"), change = working tree"
for w in $workloads; do
    i=0
    for s in $seeds; do
        case $w in
        anneal-xl | anneal-batch)
            run parent "$w" "$s" & p=$!
            run change "$w" "$s" & c=$!
            wait $p || true
            wait $c || true
            ;;
        *)
            if [ $((i % 2)) -eq 0 ]; then
                run parent "$w" "$s" || true
                run change "$w" "$s" || true
            else
                run change "$w" "$s" || true
                run parent "$w" "$s" || true
            fi
            ;;
        esac
        i=$((i + 1))
        for side in parent change; do
            if ! tail -n 1 "$out/$w-$s-$side.txt" | grep -q '"correct":true'; then
                echo "perf-ab: $w seed $s ($side) reported incorrect output" >&2
                exit 1
            fi
        done
    done
    printf '\n%s: change/parent per seed (%s), geomean\n' "$w" "$seeds"
    for s in $seeds; do
        join <(metrics "$out/$w-$s-parent.txt" | sort) <(metrics "$out/$w-$s-change.txt" | sort) |
            sed "s/^/$s /"
    done | awk '
        { key[$2] = 1; n[$2]++
          r = ($3 == 0) ? ($4 == 0 ? 1 : 0) : $4 / $3
          row[$2] = row[$2] sprintf(" %6.3f", r)
          if (r > 0) { logsum[$2] += log(r); pos[$2]++ } }
        END {
          for (k in key) {
              g = (pos[k] == n[k]) ? sprintf("%6.3f", exp(logsum[k] / n[k])) : "     -"
              printf "  %-13s%s   %s\n", k, row[k], g
          }
        }' | sort
done
