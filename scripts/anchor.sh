#!/usr/bin/env bash
# Paired wall-clock comparison of this checkout against a revision.
#
#   scripts/anchor.sh [--pairs N] [--seconds S] [--seed N] [--dir D] <rev> [workload...]
#
# Builds the benchmark's `mnbench` twice, the way scripts/neutrality.sh
# does: once from <rev> (extracted with `git archive`) and once from this
# checkout's working tree (HEAD plus any uncommitted edit). Every build and
# output goes under --dir (default: ${TMPDIR:-/tmp}/mosquitonet-anchor),
# nothing into the repository. Then, for each workload (default: all four
# of BENCHMARK.json), it runs --pairs pairs (default 8) of
#
#   mnbench --workload W --seed <seed> --seconds <S> --trace 0
#
# (default seed 1996, 6 s), one run per side, alternating which side runs
# first. It prints one line per workload: the median over the pairs of the
# change/parent ratio of `ops_per_s` and of `run_s`, each with the number
# of pairs the change won (higher `ops_per_s`, lower `run_s`) as n/N, and
# the parent's and change's medians. A ratio above 1 on `ops_per_s` and
# below 1 on `run_s` is a gain. The raw result lines are kept in
# <dir>/out/<workload>.{parent,head}.
#
# Exits 0 when every run succeeded, 1 when one failed, 2 on a usage error.
set -euo pipefail

usage() {
    echo "usage: $0 [--pairs N] [--seconds S] [--seed N] [--dir D] <rev> [workload...]" >&2
    exit 2
}
pairs=8 seconds=6 seed=1996 work="${TMPDIR:-/tmp}/mosquitonet-anchor"
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs | --seconds | --seed | --dir)
        [ $# -ge 2 ] || usage
        case "$1" in
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --seed) seed="$2" ;;
        --dir) work="$2" ;;
        esac
        shift 2
        ;;
    -*) usage ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")" || {
    echo "anchor: $1 names no commit" >&2
    exit 2
}
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(bulk_tunnel reg_churn handoff bulk_sharded)
mkdir -p "$work/out"
work="$(cd "$work" && pwd)"

# The revision's sources, re-extracted only when the revision changes so
# its target dir stays warm across runs.
parent_src="$work/parent-src"
if [ "$(cat "$parent_src/.anchor-rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git -C "$repo" archive "$rev" | tar -x -C "$parent_src"
    echo "$rev" >"$parent_src/.anchor-rev"
fi

echo "anchor: building ${rev:0:12} and the working tree" >&2
for side in parent head; do
    src="$parent_src"
    [ "$side" = head ] && src="$repo"
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
done

# metric <name>: the value of metric <name> in the result line on stdin.
metric() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# run <side> <workload>: one timed run, its result line appended to the
# side's file.
run() {
    local line
    line="$(cd "$work" && "$work/$1-target/release/mnbench" --workload "$2" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || {
        echo "anchor: $1 $2 failed" >&2
        exit 1
    }
    [ -n "$(metric ops_per_s <<<"$line")" ] || {
        echo "anchor: $1 $2 printed no ops_per_s" >&2
        exit 1
    }
    echo "$line" >>"$work/out/$2.$1"
}

for workload in "${workloads[@]}"; do
    rm -f "$work/out/$workload.parent" "$work/out/$workload.head"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$workload"
            run head "$workload"
        else
            run head "$workload"
            run parent "$workload"
        fi
    done
    for m in ops_per_s run_s; do
        paste <(metric "$m" <"$work/out/$workload.parent") \
            <(metric "$m" <"$work/out/$workload.head") >"$work/out/$workload.$m"
    done
    # One row per pair: parent and change ops_per_s, then run_s.
    paste "$work/out/$workload.ops_per_s" "$work/out/$workload.run_s" | awk -v w="$workload" '
        function median(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        {
            n++
            ops[n] = $2 / $1; run[n] = $4 / $3
            p_ops[n] = $1; h_ops[n] = $2; p_run[n] = $3; h_run[n] = $4
            ops_won += $2 > $1; run_won += $4 < $3
        }
        END {
            printf "%-12s ops_per_s x%.4f (%d/%d; %.6g -> %.6g)  run_s x%.4f (%d/%d; %.4g -> %.4g s)\n",
                w, median(ops, n), ops_won, n, median(p_ops, n), median(h_ops, n),
                median(run, n), run_won, n, median(p_run, n), median(h_run, n)
        }'
done
