#!/usr/bin/env python3
"""Classify a whole parameter grid and print the agreement summary.

Usage: python scripts/grid_sweep.py [MAX_K [MAX_A [MAX_B]]] [--jobs N]
"""

import argparse
import sys
import time

from svtangent.classify import sweep
from svtangent.cli import _at_least


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_k", type=_at_least(1), nargs="?", default=3)
    parser.add_argument("max_a", type=_at_least(1), nargs="?", default=3)
    parser.add_argument("max_b", type=_at_least(1), nargs="?", default=3)
    parser.add_argument("--jobs", type=_at_least(1), default=1)
    args = parser.parse_args()
    start = time.time()
    reports, summary = sweep(args.max_k, args.max_a, args.max_b, jobs=args.jobs)
    for r in reports:
        mark = "ok" if r.agreement else ("??" if r.has_undetermined else "XX")
        print(
            f"{mark} a={','.join(map(str, r.params.a)):9s}"
            f" b={','.join(map(str, r.params.b)):9s}"
            f" verdicts={'/'.join(r.verdict_quadruple()):28s}"
            f" clauses={r.expected.clause_label()}"
        )
    print(
        f"total={summary.total} agreements={summary.agreements}"
        f" disagreements={summary.disagreements}"
        f" undetermined={summary.undetermined}"
        f" [{time.time() - start:.1f}s]"
    )
    return 0 if summary.all_agree else 2


if __name__ == "__main__":
    sys.exit(main())
