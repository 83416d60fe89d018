#!/usr/bin/env python3
"""Which JSON keys differ between two directories of sidecars, grouped.

    python3 scripts/keydiff.py DIR_A DIR_B

Reads every `*.json` file under each directory (matched by relative
path), flattens each document to `path → scalar` (object members joined
by `.`, array items as `[i]`), and prints the paths whose values differ,
or that only one side has, grouped by leaf name: the path from its last
metric name on (`ha0/fastpath/hit.value`), with the name's first
`/`-separated part (the host) masked as `{host}` and array indices as
`[]`. Each group shows how many values differ and in which files, so a
change that moves one counter on every host reads as one line:

    48 changed  {host}/fastpath/hit.value  (a1, fig6, ...)

A file only one side has is listed by name. Exits 0 when nothing differs,
1 otherwise; `scripts/neutrality.sh` calls it before it fails on differing
metrics dirs. The standard library is all it imports.
"""

import collections
import json
import os
import re
import sys


def documents(root):
    """relative path → parsed document, for every `*.json` under `root`."""
    docs = {}
    for parent, _, files in os.walk(root):
        for name in files:
            if name.endswith(".json"):
                path = os.path.join(parent, name)
                with open(path) as f:
                    docs[os.path.relpath(path, root)] = json.load(f)
    return docs


def flatten(value, prefix="", out=None):
    """`path → scalar` for every leaf of a document."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def leaf_name(path):
    """The tail of `path` from its last metric name (a member holding a
    `/`) on, that name's host part masked; the last member alone when no
    member holds a `/`. Array indices are masked too."""
    parts = re.sub(r"\[\d+\]", "[]", path).split(".")
    named = [i for i, part in enumerate(parts) if "/" in part]
    if not named:
        return parts[-1]
    i = named[-1]
    return ".".join([re.sub(r"^[^/]+/", "{host}/", parts[i])] + parts[i + 1 :])


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        sys.exit(2)
    a, b = (documents(d) for d in sys.argv[1:])
    groups = collections.defaultdict(lambda: [0, set()])
    alone = sorted(set(a) ^ set(b))
    for file in sorted(set(a) & set(b)):
        fa, fb = flatten(a[file]), flatten(b[file])
        stem = file[: -len(".json")]
        for path in set(fa) | set(fb):
            if path not in fb:
                kind = "removed"
            elif path not in fa:
                kind = "added"
            elif fa[path] != fb[path]:
                kind = "changed"
            else:
                continue
            group = groups[(kind, leaf_name(path))]
            group[0] += 1
            group[1].add(stem.split(".")[0])
    for file in alone:
        print(f"only in {sys.argv[1] if file in a else sys.argv[2]}: {file}")
    for (kind, name), (n, stems) in sorted(groups.items(), key=lambda g: (-g[1][0], g[0])):
        print(f"{n:6d} {kind:7s}  {name}  ({', '.join(sorted(stems))})")
    sys.exit(1 if groups or alone else 0)


if __name__ == "__main__":
    main()
