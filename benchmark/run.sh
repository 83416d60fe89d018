#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh                      every workload, untraced and traced,
#                                         one process each; writes out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run of one workload (what the
#                                         benchmark driver calls)
#   --traced is --trace 1; --smoke runs the checks at a tiny scale.
#
# The build uses only path dependencies on ../crates and ../shims, so it
# works offline and fails where the repository is absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

binary=mnbench
prev=
for arg in "$@"; do
    if [ "$arg" = "--traced" ] || { [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; }; then
        binary=mnbench-traced
    fi
    prev="$arg"
done
# The suite (no --workload) is always started by the untraced binary,
# which spawns both binaries itself.
case " $* " in *" --workload "*) ;; *) binary=mnbench ;; esac

exec "$target/release/$binary" "$@"
