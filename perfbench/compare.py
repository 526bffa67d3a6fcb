#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them (run.py writes one per
run under .bench_out/results/).  Results are grouped by (workload, trace);
each metric's median over a group is compared as NEW/BASE.  The comparison is
refused (exit 2) when the two sets were measured with different CPU counts or
SIMD levels -- such numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(arg: str) -> list[dict]:
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = [json.loads(f.read_text()) for f in files]
    if not out:
        sys.exit(f"compare: no result files in {arg}")
    return out


def machine(results: list[dict], label: str) -> tuple:
    keys = {(r["context"]["nproc"], r["context"]["simd_level"]) for r in results}
    if len(keys) != 1:
        print(f"compare: {label} mixes CPU counts / SIMD levels: {sorted(keys)}", file=sys.stderr)
        sys.exit(2)
    return keys.pop()


def medians(results: list[dict]) -> dict:
    groups: dict[tuple, dict[str, list[float]]] = {}
    for r in results:
        g = groups.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            g.setdefault(name, []).append(m["value"])
    return {k: {n: statistics.median(v) for n, v in g.items()} for k, g in groups.items()}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    mb, mn = machine(base, "BASE"), machine(new, "NEW")
    if mb != mn:
        print(f"compare: refusing to compare nproc/simd {mb} with {mn}", file=sys.stderr)
        return 2
    a, b = medians(base), medians(new)
    for key in sorted(set(a) & set(b)):
        print(f"== {key[0]} (trace {key[1]})")
        for name in a[key]:
            if name in b[key]:
                x, y = a[key][name], b[key][name]
                ratio = f"{y / x:.4f}" if x else "n/a"
                print(f"  {name:32s} {x:14.6g} -> {y:14.6g}  x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
