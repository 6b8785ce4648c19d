"""Every search the verdicts make with no box, and every box they walk,
against the slow routes: the unboxed S' = S hole search against the plain
walk in the box of `oracles.hole_cap` and in the box twice as wide, and
the exact G_J decision (`Region.total_range`) and the top box of G_F
(`hoatrung._gf_top_region`) against a scan of the box twice as wide.  The
slow routes are the plain walk of the hole search
(`oracles.plain_first_hole`), and the walks of the difference regions of a
symmetric box (`oracles.gf_extremal`).

The instances are every non-normal one of the benchmark workloads and the
CM3 rungs (1,2),(1,b) with b <= 12.
"""

import json
from pathlib import Path

import pytest

from oracles import all_orbit_masks, box, gf_extremal, hole_cap, plain_first_hole
from svtangent.hoatrung import (
    _apply_membership_atom,
    _gf_top_region,
    _gj_scan,
    _h_vector,
    _mask_facets,
    cm_verdict,
    difference_regions,
    gorenstein_witness,
    s_prime_equals_s,
)
from svtangent.membership import find_holes, is_normal
from svtangent.model import SVParams, build_semigroup_from_params

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"


def _instances():
    seen = {}
    for name, items in json.loads(WORKLOADS.read_text()).items():
        for inst in items:
            seen.setdefault((tuple(inst["a"]), tuple(inst["b"])), inst["subset_cap"])
    for b in range(1, 13):
        seen.setdefault(((1, 2), (1, b)), 14)
    out = []
    for (a, b), cap in seen.items():
        p = SVParams.of(list(a), list(b))
        s = build_semigroup_from_params(p)
        if s.facets and not is_normal(s).is_normal:
            out.append(pytest.param(p, cap, id=f"{list(a)}-{list(b)}"))
    return out


NOT_NORMAL = _instances()


def in_every_sf(s):
    """The S' = S narrowing: every S_F's closed form at odd total."""

    def narrow(region):
        for c in s.facet_classes:
            _apply_membership_atom(region, s, c, c.mask, 1)

    return narrow


def test_the_instances_cover_the_facet_criterion():
    assert len(NOT_NORMAL) == 206


@pytest.mark.parametrize("p,subset_cap", NOT_NORMAL)
def test_s_prime_hole_search_against_twice_its_cap(p, subset_cap):
    # The unboxed hole searches, unnarrowed and narrowed to every S_F,
    # against the plain walk in the box of `oracles.hole_cap`, 2k(1 + B) - 1
    # with its total capped there, and in the box twice as wide with its
    # total capped at twice the cap: the same first hole, or none.
    s = build_semigroup_from_params(p)
    narrow = in_every_sf(s)
    assert find_holes(s) == plain_first_hole(s) == is_normal(s).witness
    hole = find_holes(s, narrow=narrow)
    cap = hole_cap(s, narrow)
    assert cap >= 2 * p.k - 1
    assert hole == plain_first_hole(s, narrow=narrow)

    def wide(region):
        narrow(region)
        region.total_hi = 2 * cap

    assert hole == plain_first_hole(s, 2 * cap, wide)
    sprime = s_prime_equals_s(s)
    assert sprime.holds == (hole is None) and sprime.witness == hole
    if not sprime.holds:
        assert sum(sprime.witness) <= cap


@pytest.mark.parametrize("p,subset_cap", NOT_NORMAL)
def test_gj_decision_against_twice_its_radius(p, subset_cap):
    # On every orbit of facet subsets, each parity of G_J has a point iff
    # the box of twice the listing radius meets it; an empty G_J is scanned
    # at twice the instance's test box of `oracles.hole_cap`.
    s = build_semigroup_from_params(p)
    if len(s.facets) > subset_cap:
        return
    floor = hole_cap(s, in_every_sf(s))
    for jmask in all_orbit_masks(s):
        outside = _mask_facets(s, jmask)
        inside = [f for f in s.facets if f not in outside]
        ranges = [r.total_range() for r in difference_regions(s, inside, outside)]
        radius = _gj_scan(s, outside).radius
        boxed = box(2 * max(radius, floor))
        for totals, region in zip(ranges, map(boxed, difference_regions(s, inside, outside))):
            assert (totals is None) == (region.find_point() is None), [f.label() for f in outside]


@pytest.mark.parametrize("p,subset_cap", NOT_NORMAL)
def test_gf_top_box_against_twice_its_radius(p, subset_cap):
    # Where the cone is Cohen-Macaulay, the box of twice the top box's
    # radius holds no element of G_F above total a, and at total a exactly
    # the h_D elements the top box counts, its listed ones first.
    s = build_semigroup_from_params(p)
    if cm_verdict(s, subset_cap=subset_cap).status != "cm":
        return
    g = gorenstein_witness(s)
    assert g.status in ("consistent", "refuted"), g.reason
    top = _gf_top_region(s)
    a = top.total_hi
    h = _h_vector(s, a + 2 * s.rank)
    assert g.radius == max(map(abs, top.lo + top.hi))
    best, count, _ = gf_extremal(s, 2 * g.radius, h[-1])
    assert (best, count) == (a, h[-1])
    region = box(2 * g.radius)(difference_regions(s, (), s.facets)[a % 2])
    region.total_lo = region.total_hi = a
    points = region.enumerate_points(h[-1] + 1)
    assert points == top.enumerate_points(h[-1] + 1)
    assert tuple(sorted(points[:4])) == g.max_sum_points
