"""Every stored report still comes out of `classify`: the full reports of
golden_reports.json and the digests of the acceptance grid's reports
(see golden.py, whose main regenerates both)."""

import json

import pytest

from golden import CASES, GOLDEN, GRID, GRID_DIGESTS, case_id, grid_digest, label, report


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def grid_digests() -> dict:
    return json.loads(GRID_DIGESTS.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(golden, case):
    assert report(case) == golden[case_id(case)]


def test_grid_digests_cover_every_instance(grid_digests):
    assert len(GRID) == 220
    assert sorted(grid_digests) == sorted(label(p.a, p.b) for p in GRID)


@pytest.mark.parametrize("p", GRID, ids=lambda p: label(p.a, p.b))
def test_grid_report_matches_digest(grid_digests, p):
    name = label(p.a, p.b)
    assert grid_digest(p) == grid_digests[name], f"the report of {name} moved"
