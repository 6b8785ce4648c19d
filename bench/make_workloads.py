#!/usr/bin/env python3
"""Write bench/workloads.json: every benchmark instance together with the
verdict quadruple the pipeline returned for it when the benchmark was
defined.

The stored quadruples are the benchmark's output check: a later change to
the package must reproduce them exactly.  Regenerate only when the
workloads themselves change, never to make a failing run pass.

Run from the repository root:  python3 bench/make_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from svtangent.classify import classify, normalized_grid  # noqa: E402
from svtangent.hoatrung import SUBSET_CAP  # noqa: E402
from svtangent.model import SVParams  # noqa: E402

# The eight Criterion-6 spot checks, each with its own subset cap.
SPOT = [
    ([1, 2], [1, 5], 14),
    ([1, 2], [1, 8], 14),
    ([1, 1], [2, 5], 14),
    ([1, 1], [2, 8], 14),
    ([1, 1], [5, 5], 14),
    ([1, 1], [8, 8], 16),
    ([2], [5], 14),
    ([2], [8], 14),
]

# CM1 beyond the grid: n >= 8, so the region engine and exact homology run.
SEGRE = [
    ([1, 1, 1], [3, 3, 3]),
    ([1, 1, 1, 1], [1, 2, 2, 2]),
    ([1, 1, 1, 1], [2, 2, 2, 2]),
]


def definitions() -> dict[str, list[tuple[list, list, int]]]:
    grid = [(list(p.a), list(p.b), SUBSET_CAP) for p in normalized_grid(3, 3, 3)]
    grid.append(([1, 1, 1, 1], [1, 1, 1, 1], SUBSET_CAP))
    return {
        "grid": grid,
        "spot": SPOT,
        "segre": [(a, b, SUBSET_CAP) for a, b in SEGRE],
    }


def main() -> int:
    out = {}
    for name, rows in definitions().items():
        instances = []
        start = time.perf_counter()
        for a, b, cap in rows:
            r = classify(SVParams.of(a, b), subset_cap=cap)
            if r.has_undetermined or not r.agreement:
                print(f"{name} a={a} b={b}: {r.verdict_quadruple()} disagrees", file=sys.stderr)
                return 1
            instances.append(
                {"a": a, "b": b, "subset_cap": cap, "expect": list(r.verdict_quadruple())}
            )
        print(f"{name}: {len(instances)} instances, {time.perf_counter() - start:.1f} s")
        out[name] = instances
    with open(os.path.join(HERE, "workloads.json"), "w") as fh:
        fh.write("{\n")
        for w, (name, instances) in enumerate(out.items()):
            fh.write(f'"{name}": [\n')
            fh.write(",\n".join(json.dumps(i) for i in instances))
            fh.write("\n]" + (",\n" if w < len(out) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
