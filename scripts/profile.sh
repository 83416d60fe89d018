#!/usr/bin/env bash
# Where does a benchmark workload spend its time? A sampling profile.
#
#   scripts/profile.sh [--seconds S] [--seed N] [--dir D] [--callers REGEX]... <workload>
#
# Builds this tree's benchmark (`benchmark/`, working tree as it stands)
# with frame pointers and line tables, into --dir (default:
# ${TMPDIR:-/tmp}/mosquitonet-profile), nothing into the repository, then
# runs
#
#   mnbench --workload <workload> --seed <seed> --seconds <S> --trace 0
#
# (default seed 1996, 6 s) under scripts/sample.py, which interrupts it
# with ptrace every 0.5 ms, walks its frame-pointer chain and prints self %
# and inclusive % by function, self % by innermost source line with the
# functions it is inlined into, and one row for the samples that landed
# outside the binary (libc's malloc, free, memcpy), by library and by the
# nearest exported symbol; each --callers REGEX (passed on to sample.py)
# adds the two frames above every sample whose innermost function matches
# it. It needs no `perf` and
# no privilege beyond tracing its own child. The build flags live here
# only: the benchmark's own build is untouched.
#
# Exits with sample.py's status: 0 when the run succeeded, 1 when it
# failed, 2 on a usage error.
set -euo pipefail

usage() {
    echo "usage: $0 [--seconds S] [--seed N] [--dir D] [--callers REGEX]... <workload>" >&2
    exit 2
}
seconds=6 seed=1996 work="${TMPDIR:-/tmp}/mosquitonet-profile"
callers=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seconds | --seed | --dir | --callers)
        [ $# -ge 2 ] || usage
        case "$1" in
        --seconds) seconds="$2" ;;
        --seed) seed="$2" ;;
        --dir) work="$2" ;;
        --callers) callers+=(--callers "$2") ;;
        esac
        shift 2
        ;;
    -*) usage ;;
    *) break ;;
    esac
done
[ $# -eq 1 ] || usage
workload="$1"
tree="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

echo "profile: building $tree/benchmark with frame pointers" >&2
RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_PROFILE_RELEASE_STRIP=none \
    CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"

cd "$work"
exec python3 "$tree/scripts/sample.py" --root "$tree" "${callers[@]}" -- \
    "$work/target/release/mnbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0
