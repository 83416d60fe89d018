#!/usr/bin/env bash
# Paired wall-clock comparison of this checkout against a revision.
#
#   scripts/anchor.sh [--pairs N] [--seconds S] [--seed N] [--dir D] <rev> [workload...]
#
# Builds the benchmark's `mnbench` twice, the way scripts/neutrality.sh
# does: once from <rev> (extracted with `git archive`) and once from this
# checkout's working tree (HEAD plus any uncommitted edit). Every build and
# output goes under --dir (default: ${TMPDIR:-/tmp}/mosquitonet-anchor),
# nothing into the repository.
#
# Before any pair it prints the send path's inlining shape in both
# binaries, since where LLVM inlines `transmit_wire` moves the packet
# path's speed and no test holds it: one `callee` line per function that
# `world::transmit_wire`, `ip::transmit_ip` or `ip::send_resolved` calls
# or tail-jumps to out of line (`objdump -d -C`; a call through the GOT
# named by the symbol its R_X86_64_RELATIVE slot holds, `readelf -rW`),
# marked `both`, `parent` or `head`; then one `ool` line per
# `mosquitonet_stack::{ip,world}::*` function out of line in one binary
# only (`nm -C --defined-only`), which is where a deleted or a newly
# inlined function shows. It ends with `shape: same` when the three
# functions call the same functions in both binaries, else `shape:
# differs` and the `callee` lines that differ. The check informs; it
# never fails the run.
#
# Then, for each workload (default: all four
# of BENCHMARK.json), it runs --pairs pairs (default 8) of
#
#   mnbench --workload W --seed <seed> --seconds <S> --trace 0
#
# (default seed 1996, 6 s), one run per side, alternating which side runs
# first. It prints two lines per workload. The first gives the median over
# the pairs of the change/parent ratio of `ops_per_s` and of `run_s`, each
# with the number of pairs the change won (higher `ops_per_s`, lower
# `run_s`) as n/N and both sides' medians, and the parent's q1-q3 of
# `ops_per_s` over its runs (quartiles by the benchmark's own exclusive
# method). The second gives the median ratio and wins of the uncorrected
# wall `ops_per_s` (each run's `uncorrected wall medians` line: the rate
# before the machine-speed yardstick divides it, so a bias in the
# yardstick shows as a gap between the two ratios), both sides' median
# `peak_rss_mb`, and a verdict on `ops_per_s`: `gain` when the change won
# at least nine tenths of the pairs and its median exceeds the parent's by
# more than the parent's q3 - q1, else `no gain`. A ratio above 1 on
# `ops_per_s` and below 1 on `run_s` is a gain. The raw result lines are
# kept in <dir>/out/<workload>.{parent,head}, the uncorrected rates in
# <dir>/out/<workload>.{parent,head}.wall.
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

echo "anchor: building ${rev:0:12} and the working tree" >&2
for side in parent head; do
    src="$parent_src"
    [ "$side" = head ] && src="$repo"
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
done

# shape <parent binary> <head binary>: the send path's inlining shape in
# both (see the header).
shape() {
    python3 - "$@" <<'PY'
import re
import subprocess
import sys

SEND_PATH = ["world::transmit_wire", "ip::transmit_ip", "ip::send_resolved"]
STACK = re.compile(r"^mosquitonet_stack::(ip|world)::")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def shape(path):
    """The out-of-line callees of each send-path function, and the
    out-of-line `mosquitonet_stack::{ip,world}` functions."""
    syms = []
    for line in run("nm", "-C", "-S", "--defined-only", path).splitlines():
        f = line.split(" ", 3)
        if len(f) == 4 and f[2] in "tTwW":
            syms.append((int(f[0], 16), int(f[1], 16), f[3]))
    name_at = {addr: name for addr, _, name in syms}
    slot = {}
    for line in run("readelf", "-rW", path).splitlines():
        f = line.split()
        if len(f) >= 4 and f[2] == "R_X86_64_RELATIVE":
            slot[int(f[0], 16)] = int(f[3], 16)
    callees = {}
    for fn in SEND_PATH:
        full, found = "mosquitonet_stack::" + fn, set()
        for addr, size, name in syms:
            if name != full:
                continue
            asm = run("objdump", "-d", "-C", "--no-show-raw-insn",
                      f"--start-address={addr:#x}", f"--stop-address={addr + size:#x}", path)
            for line in asm.splitlines():
                m = re.search(r"\t(call|jmp)\s+(\S+)(.*)", line)
                if not m:
                    continue
                target, rest = m.group(2), m.group(3)
                got = re.match(r"\s*# ([0-9a-f]+) <([^>]*)>", rest)
                if target.startswith("*") and got:
                    dest = slot.get(int(got.group(1), 16))
                    found.add(got.group(2) if dest is None else name_at.get(dest, hex(dest)))
                elif target.startswith("*"):
                    found.add("(indirect)" if m.group(1) == "call" else "(indirect jump)")
                else:
                    direct = re.match(r"\s*<(.*)>$", rest)
                    if direct and "+0x" not in direct.group(1):
                        found.add(direct.group(1))
        callees[fn] = found
    ool = {name for _, _, name in syms if STACK.match(name)}
    return callees, ool


(p_calls, p_ool), (h_calls, h_ool) = shape(sys.argv[1]), shape(sys.argv[2])
differs = []
for fn in SEND_PATH:
    for callee in sorted(p_calls[fn] | h_calls[fn]):
        side = "both" if callee in p_calls[fn] and callee in h_calls[fn] else (
            "parent" if callee in p_calls[fn] else "head")
        line = f"callee {fn:22} {side:6} {callee}"
        print(line)
        if side != "both":
            differs.append(line)
for name in sorted(p_ool ^ h_ool):
    print(f"ool    {'parent' if name in p_ool else 'head':6} {name}")
print("shape: same" if not differs else "shape: differs\n" + "\n".join(differs))
PY
}

# metric <name>: the value of metric <name> in the result line on stdin.
metric() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# run <side> <workload>: one timed run, its result line appended to the
# side's file and its uncorrected wall ops_per_s to the side's .wall file.
run() {
    local out line wall
    out="$(cd "$work" && "$work/$1-target/release/mnbench" --workload "$2" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null)" || {
        echo "anchor: $1 $2 failed" >&2
        exit 1
    }
    line="$(tail -n 1 <<<"$out")"
    wall="$(sed -n 's/.*uncorrected wall medians:.*ops_per_s=\([^ ]*\).*/\1/p' <<<"$out")"
    [ -n "$(metric ops_per_s <<<"$line")" ] || {
        echo "anchor: $1 $2 printed no ops_per_s" >&2
        exit 1
    }
    [ -n "$wall" ] || {
        echo "anchor: $1 $2 printed no uncorrected wall medians" >&2
        exit 1
    }
    echo "$line" >>"$work/out/$2.$1"
    echo "$wall" >>"$work/out/$2.$1.wall"
}

shape "$work/parent-target/release/mnbench" "$work/head-target/release/mnbench"

for workload in "${workloads[@]}"; do
    rm -f "$work/out/$workload".{parent,head}{,.wall}
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$workload"
            run head "$workload"
        else
            run head "$workload"
            run parent "$workload"
        fi
    done
    for m in ops_per_s run_s peak_rss_mb; do
        paste <(metric "$m" <"$work/out/$workload.parent") \
            <(metric "$m" <"$work/out/$workload.head") >"$work/out/$workload.$m"
    done
    paste "$work/out/$workload".{parent,head}.wall >"$work/out/$workload.wall"
    # One row per pair: parent and change ops_per_s, run_s, uncorrected
    # wall ops_per_s, then peak_rss_mb.
    paste "$work/out/$workload".{ops_per_s,run_s,wall,peak_rss_mb} | awk -v w="$workload" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function median(a, n) {
            sort(a, n)
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        # The i-th quartile by the exclusive method (benchmark/src/stats.rs).
        function quartile(a, n, i,    j, d) {
            sort(a, n)
            if (n == 1) return a[1]
            j = int(i * (n + 1) / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = i * (n + 1) - 4 * j
            return (a[j] * (4 - d) + a[j + 1] * d) / 4
        }
        {
            n++
            ops[n] = $2 / $1; run[n] = $4 / $3; wall[n] = $6 / $5
            p_ops[n] = $1; h_ops[n] = $2; p_run[n] = $3; h_run[n] = $4
            p_rss[n] = $7; h_rss[n] = $8
            ops_won += $2 > $1; run_won += $4 < $3; wall_won += $6 > $5
        }
        END {
            q1 = quartile(p_ops, n, 1); q3 = quartile(p_ops, n, 3)
            p_med = median(p_ops, n); h_med = median(h_ops, n)
            gain = 10 * ops_won >= 9 * n && h_med - p_med > q3 - q1
            printf "%-12s ops_per_s x%.4f (%d/%d; %.6g -> %.6g; parent q1-q3 %.6g-%.6g)  run_s x%.4f (%d/%d; %.4g -> %.4g s)\n",
                w, median(ops, n), ops_won, n, p_med, h_med, q1, q3,
                median(run, n), run_won, n, median(p_run, n), median(h_run, n)
            printf "%-12s wall ops_per_s x%.4f (%d/%d)  peak_rss_mb %.4g -> %.4g  %s\n",
                "", median(wall, n), wall_won, n, median(p_rss, n), median(h_rss, n),
                gain ? "gain" : "no gain"
        }'
done
