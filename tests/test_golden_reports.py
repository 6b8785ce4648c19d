"""Stored `classify(...).to_dict()` reports for a fixed set of instances.

The instances are the spot and Segre workloads of the benchmark, two
instances whose box products of block ranges exceed the engine budget but
whose walks do not, the rank-one and smallest smooth cases, and one
full-evidence report.  A change that alters any report must say so
and regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from svtangent.classify import classify
from svtangent.model import SVParams

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

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
]


def case_id(case) -> str:
    a, b, cap, evidence = case
    label = f"a={','.join(map(str, a))} b={','.join(map(str, b))}"
    if cap is not None:
        label += f" cap={cap}"
    return label + (" evidence" if evidence else "")


def report(case) -> dict:
    a, b, cap, evidence = case
    kwargs = {"full_evidence": evidence}
    if cap is not None:
        kwargs["subset_cap"] = cap
    # A JSON round trip turns tuples into lists, as in the stored file.
    return json.loads(json.dumps(classify(SVParams.of(a, b), **kwargs).to_dict()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(golden, case):
    assert report(case) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_id(c): report(c) for c in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
