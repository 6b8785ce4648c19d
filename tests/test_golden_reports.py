"""Every stored report still comes out of `classify`: the full reports of
golden_reports.json and the digests of the reports of the acceptance grid
and of `sweep(4, 4, 4)` (see golden.py, whose main regenerates them)."""

import json

import pytest

from golden import (
    CASES,
    GOLDEN,
    GRID,
    GRID_DIGESTS,
    SWEEP444_DIGESTS,
    case_id,
    grid_digest,
    label,
    report,
    report_digest,
)
from svtangent.classify import sweep


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


@pytest.fixture(scope="module")
def sweep_444():
    return sweep(4, 4, 4)


def test_sweep_444_agrees_with_the_table(sweep_444):
    reports, summary = sweep_444
    assert summary.total == len(reports) == 4844
    assert summary.agreements == 4844
    assert summary.undetermined == 0


def test_sweep_444_reports_match_digests(sweep_444):
    digests = json.loads(SWEEP444_DIGESTS.read_text())
    reports, _ = sweep_444
    got = {label(r.params.a, r.params.b): report_digest(r) for r in reports}
    assert sorted(got) == sorted(digests)
    moved = sorted(name for name in got if got[name] != digests[name])
    assert not moved, f"{len(moved)} reports moved, the first {moved[:5]}"
