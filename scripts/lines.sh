#!/usr/bin/env bash
# Counts the workspace's Rust lines the way ROADMAP [lines] measures them.
#
#   scripts/lines.sh [rev]
#
# Prints, for this checkout's working tree (tracked and untracked,
# non-ignored files):
#
#   total    every .rs line outside benchmark/, tests included;
#   program  the same files minus shims/, examples/ and every tests/
#            directory, each file counted only up to its first
#            `#[cfg(test)]` line;
#   <crate>  the program lines of each crate (`mosquitonet` is the root
#            crate's src/).
#
# Given a rev, it also extracts that rev with `git archive` into a
# temporary directory under ${TMPDIR:-/tmp} and prints its counts and the
# change beside the working tree's. It writes nothing in the repository.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [rev]" >&2
    exit 2
fi
repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"

# count <dir>: reads relative file names on stdin and prints one
# "<name> <lines>" row per measure, `total` and `program` first.
count() {
    local dir="$1" files=()
    while IFS= read -r f; do
        case "$f" in benchmark/*) continue ;; esac
        [ -f "$dir/$f" ] && files+=("$dir/$f")
    done < <(grep '\.rs$' | sort -u)
    local rows
    rows="$(awk -v dir="$dir/" '
        FNR == 1 {
            f = substr(FILENAME, length(dir) + 1)
            counted = f !~ /^(shims|examples|tests)\// && f !~ /\/tests\//
            if (f ~ /^crates\//) { split(f, p, "/"); key = p[2] } else { key = "mosquitonet" }
            in_tests = 0
        }
        { total++ }
        counted && /^#\[cfg\(test\)\]/ { in_tests = 1 }
        counted && !in_tests { program++; crate[key]++ }
        END {
            print "total", total + 0
            print "program", program + 0
            for (k in crate) print k, crate[k]
        }
    ' "${files[@]}")"
    echo "$rows" | head -2
    echo "$rows" | tail -n +3 | sort
}

now="$(git -C "$repo" ls-files --cached --others --exclude-standard | count "$repo")"
if [ $# -eq 0 ]; then
    echo "$now" | awk '{ printf "%-12s %7d\n", $1, $2 }'
    exit 0
fi

rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")" || {
    echo "lines: $1 names no commit" >&2
    exit 2
}
tmp="$(mktemp -d "${TMPDIR:-/tmp}/mosquitonet-lines.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
git -C "$repo" archive "$rev" | tar -x -C "$tmp"
then="$(git -C "$repo" ls-tree -r --name-only "$rev" | count "$tmp")"

# Joins the two tables on the row name: the rev's rows in its order, then
# any row only the working tree has (a missing row counts 0).
awk -v rev="${rev:0:12}" '
    NR == FNR { old[$1] = $2; order[++n] = $1; next }
    { new[$1] = $2; if (!($1 in old)) order[++n] = $1 }
    END {
        printf "%-12s %12s %9s %7s\n", "measure", rev, "worktree", "delta"
        for (i = 1; i <= n; i++) {
            k = order[i]
            if (seen[k]++) continue
            printf "%-12s %12d %9d %+7d\n", k, old[k], new[k], new[k] - old[k]
        }
    }
' <(echo "$then") <(echo "$now")
