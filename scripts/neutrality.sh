#!/usr/bin/env bash
# Proves that a change moved no simulated byte, event or RNG draw.
#
#   scripts/neutrality.sh <parent-rev> [workdir]
#
# Builds the `experiment` binary and the benchmark's `mnbench` twice: once
# from <parent-rev> (extracted with `git archive`) and once from this
# checkout's working tree (HEAD plus any uncommitted edit). Every build
# and output goes under [workdir] (default: ${TMPDIR:-/tmp}/mosquitonet-neutrality),
# nothing into the repository. Then, for both builds:
#
#   1. `experiment all seed=1996` and `experiment all seed=7`, each into its
#      own metrics dir: stdout must match, and `diff -r` of the two metrics
#      dirs must be empty; when it is not, the differing files are named
#      and `scripts/keydiff.py` prints the differing JSON keys, grouped by
#      leaf name with counts;
#   2. `mnbench --workload W --seed S --trace 0` for the four workloads and
#      seeds 1996, 4242 and 7: the `sim_digest … events …` lines must match
#      (`attempted` is left out: it counts the repeats that fit in the time).
#
# Every comparison runs even after one differs: each difference is printed
# as it is found (a diff or key diff on stderr) and listed again at the
# end, a digest difference saying whether the event counts differ too.
# Exits 0 when everything matches, 1 when anything differs, 2 on a usage
# error.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <parent-rev> [workdir]" >&2
    exit 2
fi
repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")" || {
    echo "neutrality: $1 names no commit" >&2
    exit 2
}
work="${2:-${TMPDIR:-/tmp}/mosquitonet-neutrality}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# The parent's sources, re-extracted only when the revision changes so
# its target dir stays warm across runs (the other of neutrality.sh and
# anchor.sh, given the same dir, reuses them). `tar -m` stamps the files
# with the time of extraction: with the archive's commit-time stamps,
# cargo would take a target dir built from another revision as up to
# date and keep that revision's binaries.
parent_src="$work/parent-src"
if [ "$(cat "$parent_src/.parent-rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git -C "$repo" archive "$rev" | tar -x -m -C "$parent_src"
    echo "$rev" >"$parent_src/.parent-rev"
fi

build() { # build <src> <target>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        -p mosquitonet-testbed --bin experiment)
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "neutrality: building ${rev:0:12} and the working tree" >&2
build "$parent_src" "$work/parent-target"
build "$repo" "$work/head-target"

differences=()
differ() {
    echo "neutrality: DIFF: $*" >&2
    differences+=("$*")
}

for seed in 1996 7; do
    for side in parent head; do
        out="$work/out/$side/seed$seed"
        rm -rf "$out"
        mkdir -p "$out"
        (cd "$work" && MOSQUITONET_METRICS_DIR="$out/metrics" \
            "$work/$side-target/release/experiment" all seed="$seed" \
            >"$out/stdout" 2>"$out/stderr") ||
            differ "$side experiment all seed=$seed failed (see $out/stderr)"
    done
    a="$work/out/parent/seed$seed"
    b="$work/out/head/seed$seed"
    same=1
    diff "$a/stdout" "$b/stdout" >&2 || {
        differ "experiment all seed=$seed: stdout differs"
        same=0
    }
    if ! diff -rq "$a/metrics" "$b/metrics" >&2; then
        # What moved, by key: the differing flattened JSON paths, grouped.
        python3 "$repo/scripts/keydiff.py" "$a/metrics" "$b/metrics" >&2 || true
        differ "experiment all seed=$seed: metrics dirs differ"
        same=0
    fi
    [ "$same" = 0 ] ||
        echo "neutrality: experiment all seed=$seed: stdout and metrics identical" >&2
done

for workload in bulk_tunnel reg_churn handoff bulk_sharded; do
    for seed in 1996 4242 7; do
        for side in parent head; do
            (cd "$work" && "$work/$side-target/release/mnbench" --workload "$workload" \
                --seed "$seed" --seconds 1 --trace 0) |
                awk '$2 == "sim_digest" { print $1, $2, $3, $4, $5 }' >"$work/out/$side/digest" ||
                true
        done
        # Fields: workload, "sim_digest", digest, "events", event count.
        read -r _ _ pd _ pe <"$work/out/parent/digest" || true
        read -r _ _ hd _ he <"$work/out/head/digest" || true
        if [ -z "${pd:-}" ] || [ -z "${hd:-}" ]; then
            differ "$workload seed=$seed: a side printed no sim_digest"
        elif [ "$pd" != "$hd" ] && [ "$pe" != "$he" ]; then
            differ "$workload seed=$seed: sim_digest differs ($pd → $hd), events differ too ($pe → $he)"
        elif [ "$pd" != "$hd" ]; then
            differ "$workload seed=$seed: sim_digest differs ($pd → $hd), events equal ($pe)"
        elif [ "$pe" != "$he" ]; then
            differ "$workload seed=$seed: sim_digest equal, events differ ($pe → $he)"
        else
            echo "neutrality: $(cat "$work/out/head/digest") seed $seed" >&2
        fi
    done
done
if [ ${#differences[@]} -gt 0 ]; then
    echo "neutrality: FAIL: ${#differences[@]} difference(s) against ${rev:0:12}:" >&2
    printf '  %s\n' "${differences[@]}" >&2
    exit 1
fi
echo "neutrality: PASS against ${rev:0:12}"
