"""The stored reports the test suite compares `classify` against.

Two files under tests/data/ hold them:

* golden_reports.json: the full `classify(...).to_dict()` report of each
  case of CASES, the spot and Segre workloads of the benchmark, two
  instances whose box products of block ranges exceed the engine budget
  but whose walks do not, the rank-one and smallest smooth cases, and the
  five full-evidence reports of scripts/report_digest.py;
* grid_report_digests.json: the sha256 of each report of the acceptance
  grid, `sweep(3, 3, 3)` and the (1,1,1,1) extra, as
  `json.dumps(report, sort_keys=True)`;
* sweep444_report_digests.json: the same digests for the 4,844 reports of
  `sweep(4, 4, 4)`.

A change that alters any report must say so and regenerate the files,
with the standard library alone:

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
from pathlib import Path

from svtangent.classify import ClassificationReport, classify, normalized_grid, sweep
from svtangent.model import SVParams

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_reports.json"
GRID_DIGESTS = DATA / "grid_report_digests.json"
SWEEP444_DIGESTS = DATA / "sweep444_report_digests.json"

# (a, b, subset_cap or None for the default, full_evidence)
CASES = [
    ((1, 2), (1, 5), 14, False),
    ((1, 2), (1, 8), 14, False),
    ((1, 1), (2, 5), 14, False),
    ((1, 1), (2, 8), 14, False),
    ((1, 1), (5, 5), 14, False),
    ((1, 1), (8, 8), 16, False),
    ((2,), (5,), 14, False),
    ((2,), (8,), 14, False),
    ((1, 1, 1), (3, 3, 3), 14, False),
    ((1, 1, 1, 1), (1, 2, 2, 2), 14, False),
    ((1, 1, 1, 1), (2, 2, 2, 2), 14, False),
    ((1,) * 6, (3,) * 6, None, False),
    ((1, 1, 1, 3), (5, 5, 5, 5), None, False),
    ((1,), (2,), None, False),
    ((2,), (1,), None, False),
    ((3,), (1,), None, False),
    ((1, 1), (1, 1), None, False),
    ((1, 2), (1, 2), None, True),
    ((1, 2), (1, 3), None, True),
    ((2, 2), (1, 2), None, True),
    ((1, 2), (1, 1), None, True),
    ((3,), (1,), None, True),
]

GRID = normalized_grid(3, 3, 3) + [SVParams.of([1, 1, 1, 1], [1, 1, 1, 1])]


def label(a, b) -> str:
    return f"a={','.join(map(str, a))} b={','.join(map(str, b))}"


def case_id(case) -> str:
    a, b, cap, evidence = case
    out = label(a, b)
    if cap is not None:
        out += f" cap={cap}"
    return out + (" evidence" if evidence else "")


def report(case) -> dict:
    a, b, cap, evidence = case
    kwargs = {"full_evidence": evidence}
    if cap is not None:
        kwargs["subset_cap"] = cap
    # A JSON round trip turns tuples into lists, as in the stored file.
    return json.loads(json.dumps(classify(SVParams.of(a, b), **kwargs).to_dict()))


def report_digest(r: ClassificationReport) -> str:
    """The sha256 of a report, keys sorted."""
    return hashlib.sha256(json.dumps(r.to_dict(), sort_keys=True).encode()).hexdigest()


def grid_digest(p: SVParams) -> str:
    """The digest of the instance's default report."""
    return report_digest(classify(p))


def main() -> None:
    GOLDEN.write_text(
        json.dumps({case_id(c): report(c) for c in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    digests = {label(p.a, p.b): grid_digest(p) for p in GRID}
    GRID_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    reports, _ = sweep(4, 4, 4)
    digests = {label(r.params.a, r.params.b): report_digest(r) for r in reports}
    SWEEP444_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
