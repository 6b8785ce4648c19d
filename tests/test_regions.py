import gc
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    BALANCED,
    EVEN,
    FULL,
    ZERO,
    block_ranges,
    oracle_group,
    oracle_points_of_sum,
    hole_region,
    plain_max_total,
    product_filter_sums,
    scan_total_range,
    swap_walk,
)
from svtangent.classify import classify
from svtangent.model import SVParams, build_semigroup, build_semigroup_from_params
from svtangent import hoatrung, regions
from svtangent.regions import Region


def constrain_to_group(region, form):
    """A closed-form group as region constraints, written out by hand: the
    even group is total parity 0, the pinned balances lie in [0, 0], and the
    zero group clamps every coordinate to 0.  The balanced and zero groups
    keep the region's own total parity, so the walks also meet pinned
    balances and clamped coordinates at no parity and at parity 1."""
    if form.parity is not None and not (form.pinned or form.zero):
        region.total_parity = form.parity
    for i in form.pinned:
        region.clamp_balance_lo(i, 0)
        region.clamp_balance_hi(i, 0)
    if form.zero:
        for q in range(region.params.n):
            region.clamp_lo(q, 0)
            region.clamp_hi(q, 0)
    return region


def brute_force(region):
    """All points of the region by filtering the whole box."""
    p = region.params
    axes = [range(region.lo[q], region.hi[q] + 1) for q in range(p.n)]
    out = []
    for v in itertools.product(*axes):
        total = sum(v)
        if region.total_parity is not None and total % 2 != region.total_parity:
            continue
        ok = True
        for i, lo in region.balance_lo.items():
            if total - 2 * p.block_sum(v, i) < lo:
                ok = False
        for i, hi in region.balance_hi.items():
            if total - 2 * p.block_sum(v, i) > hi:
                ok = False
        if ok:
            out.append(v)
    return sorted(out)


region_specs = st.tuples(
    st.sampled_from([((1, 2), (2, 1)), ((1, 1), (1, 2)), ((2,), (3,))]),
    st.sampled_from([FULL, EVEN, BALANCED]),
    st.none() | st.integers(0, 1),
    st.lists(st.tuples(st.integers(-3, 1), st.integers(-1, 3)), min_size=4, max_size=4),
    st.none() | st.integers(-2, 2),
)


@given(region_specs)
@settings(max_examples=250, deadline=None)
def test_engine_matches_brute_force(spec):
    (a, b), form, parity, bounds, balance_hi = spec
    params = SVParams.of(list(a), list(b))
    if form == BALANCED and params.k != 2:
        form = FULL
    n = params.n
    lo = [min(x, y) for x, y in bounds[:n]]
    hi = [max(x, y) for x, y in bounds[:n]]
    region = constrain_to_group(Region(params=params, lo=lo, hi=hi, total_parity=parity), form)
    if balance_hi is not None:
        region.clamp_balance_hi(1, balance_hi)
    expected = brute_force(region)
    got = sorted(region.enumerate_points(limit=10_000))
    assert got == expected
    assert (region.find_point() is not None) == bool(expected)
    best, count, points = region.max_total(point_limit=1_000)
    if not expected:
        assert best is None
    else:
        want_best = max(sum(v) for v in expected)
        want_points = [v for v in expected if sum(v) == want_best]
        assert best == want_best
        assert count == len(want_points)
        assert set(points) <= set(want_points)
    assert region.max_coordinate() == coordinate_maxima(expected, n)


def coordinate_maxima(points, n):
    """The largest value of every coordinate over the points, or None."""
    return tuple(max(v[pos] for v in points) for pos in range(n)) if points else None


walk_specs = st.tuples(
    st.lists(st.integers(1, 2), min_size=1, max_size=4),
    st.sampled_from([FULL, EVEN, BALANCED, ZERO]),
    st.none() | st.integers(0, 1),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 3)), min_size=8, max_size=8),
    st.sampled_from(range(32)),
    st.dictionaries(st.integers(1, 4), st.integers(-6, 2), max_size=3),
    st.dictionaries(st.integers(1, 4), st.integers(-2, 6), max_size=3),
)


def walk_region(spec):
    b, form, parity, bounds, empty_pos, bal_lo, bal_hi = spec
    params = SVParams.of([1] * len(b), b)
    if form == BALANCED and params.k < 2:
        form = FULL
    region = Region(
        params=params,
        lo=[lo for lo, _ in bounds[: params.n]],
        hi=[lo + width for lo, width in bounds[: params.n]],
        total_parity=parity,
    )
    constrain_to_group(region, form)
    if empty_pos < params.n:
        region.clamp_hi(empty_pos, region.lo[empty_pos] - 1)
    for i, value in bal_lo.items():
        if i <= params.k:
            region.clamp_balance_lo(i, value)
    for i, value in bal_hi.items():
        if i <= params.k:
            region.clamp_balance_hi(i, value)
    return region


@given(walk_specs)
@example(([1, 1, 1], EVEN, 1, [(0, 2)] * 8, 31, {}, {}))
@example(([1, 2, 1], FULL, None, [(0, 2)] * 8, 2, {}, {}))
@example(([2, 1, 1, 1], ZERO, 0, [(-1, 2)] * 8, 31, {2: -2}, {4: 1}))
@example(([1, 1, 2, 1], BALANCED, 1, [(-1, 3)] * 8, 31, {1: -1, 3: -2}, {2: 2, 4: 3}))
@settings(max_examples=400, deadline=None)
def test_walk_matches_product_filter_in_order(spec):
    region = walk_region(spec)
    params = region.params
    sums = product_filter_sums(region)
    assert list(region._feasible_sums()) == sums

    # find_point fills each block greedily from its first coordinate: the
    # lexicographically greatest point of the first tuple.
    assert region.find_point() == (max(oracle_points_of_sum(region, sums[0])) if sums else None)
    points = [v for s in sums for v in oracle_points_of_sum(region, s)]
    assert region.enumerate_points(limit=7) == points[:7]
    best, count, best_points = region.max_total(point_limit=3)
    if not sums:
        assert (best, count, best_points) == (None, 0, [])
    else:
        want_best = max(map(sum, sums))
        want_points = [v for v in points if sum(v) == want_best]
        assert best == want_best
        assert best_points == want_points[:3]
        assert count == min(len(want_points), 4)
    assert region.max_coordinate() == coordinate_maxima(points, params.n)


@given(walk_specs)
@settings(max_examples=300, deadline=None)
def test_no_level_opens_more_than_the_box_product(spec):
    # The budget counts the values the walk opens at each level, and level j
    # opens at most the product of the first j block ranges: no search whose
    # box product is within the budget is refused.
    region = walk_region(spec)
    ranges = block_ranges(region)
    box = math.prod(map(len, ranges)) if ranges else 0
    with mock.patch.object(regions, "ENGINE_BUDGET", box):
        list(region._feasible_sums())


def test_the_walk_has_dead_ends():
    # A value's interval reads the balance bounds of the blocks fixed so far,
    # one at a time.  Here the balances of blocks 2 and 3 sum to 2 s_1, so
    # every tuple has s_1 >= 3, yet block 1 opens all six values 0..5: a
    # budget of 5 overflows at block 1, and one of 6 at block 2, though the
    # region has only three values of s_1.
    params = SVParams.of([1, 1, 1], [1, 1, 1])

    def region():
        return Region(params, [0] * 3, [5] * 3, balance_lo={2: 3, 3: 3})

    tuples = list(region()._feasible_sums())
    assert tuples == product_filter_sums(region())
    assert len(tuples) == 46 and {t[0] for t in tuples} == {3, 4, 5}
    for budget, block in ((5, 1), (6, 2)):
        with mock.patch.object(regions, "ENGINE_BUDGET", budget):
            with pytest.raises(regions.EngineOverflow, match=f"{budget} values at block {block}"):
                list(region()._feasible_sums())


@given(walk_specs, st.integers(-4, 14))
@settings(max_examples=400, deadline=None)
def test_capped_walk_is_the_uncapped_walk_filtered_by_total(spec, cap):
    # The total bound prunes inside the walk; the tuples it yields are the
    # uncapped walk's of total at most the cap, in the same order, and so
    # are the points, maxima and first point the queries read off them.
    region = walk_region(spec)
    uncapped = list(region._feasible_sums())
    plain_points = region.enumerate_points(limit=10**6)
    region.total_hi = cap
    assert list(region._feasible_sums()) == [t for t in uncapped if sum(t) <= cap]
    sums = product_filter_sums(region)
    assert list(region._feasible_sums()) == sums
    points = [v for v in plain_points if sum(v) <= cap]
    assert region.enumerate_points(limit=10**6) == points
    first = max(oracle_points_of_sum(region, sums[0])) if sums else None
    assert region.find_point() == first
    assert region.max_total(point_limit=3) == plain_max_total(region, point_limit=3)


@given(walk_specs, st.integers(-4, 14), st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_total_interval_walk_is_the_plain_walk_filtered_by_total(spec, low, width):
    # A lower total bound prunes inside the walk as the upper one does: with
    # both, the walk yields the plain walk's tuples of total in the interval,
    # in the same order, and the points and maxima the queries read off them.
    region = walk_region(spec)
    plain = list(region._feasible_sums())
    plain_points = region.enumerate_points(limit=10**6)
    region.total_lo, region.total_hi = low, low + width
    assert list(region._feasible_sums()) == [t for t in plain if low <= sum(t) <= low + width]
    assert list(region._feasible_sums()) == product_filter_sums(region)
    points = [v for v in plain_points if low <= sum(v) <= low + width]
    assert region.enumerate_points(limit=10**6) == points
    assert region.max_coordinate() == coordinate_maxima(points, region.params.n)


def in_region(region, x):
    """Every constraint of a region, checked on the point."""
    total = sum(x)
    sums = region.params.block_sums(x)
    return (
        all(lo <= v <= hi for lo, v, hi in zip(region.lo, x, region.hi))
        and all(total - 2 * sums[i - 1] >= v for i, v in region.balance_lo.items())
        and all(total - 2 * sums[i - 1] <= v for i, v in region.balance_hi.items())
        and total % 2 == region.total_parity
    )


@given(walk_specs, st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_total_range_is_the_walks(spec, parity):
    # With finite bounds the exact range of totals, read with no walk, is
    # the least and the largest total the walk reaches, and the scan and
    # bisection it replaced; each total the walk reaches has a point of the
    # region built at it.
    region = walk_region(spec)
    if region.total_parity is None:
        region.total_parity = parity
    totals = sorted({sum(v) for v in region.enumerate_points(limit=10**6)})
    got = region.total_range()
    assert got == ((totals[0], totals[-1]) if totals else None)
    assert got == scan_total_range(region)
    for total in totals:
        x = region.point_of_total(total)
        assert sum(x) == total and in_region(region, x)


@given(walk_specs, st.integers(0, 1), st.lists(st.sampled_from(["lo", "hi", None]), min_size=8, max_size=8))
@settings(max_examples=300, deadline=None)
def test_total_range_with_infinite_bounds(spec, parity, open_sides):
    # Some coordinate bounds made infinite: the exact range is the scan and
    # bisection it replaced, the totals a box of radius 12 reaches lie in
    # it, a finite end is reached by a point of the region built at it, and
    # an empty range leaves the box empty.  Each block-sum tuple of the box
    # has a point, so the box's totals are the sums of its tuples.
    region = walk_region(spec)
    if region.total_parity is None:
        region.total_parity = parity
    if region.infeasible or any(lo > hi for lo, hi in zip(region.lo, region.hi)):
        return
    for q, side in enumerate(open_sides[: region.params.n]):
        if side == "lo":
            region.lo[q] = -math.inf
        elif side == "hi":
            region.hi[q] = math.inf
    got = region.total_range()
    assert got == scan_total_range(region)
    box = Region(
        params=region.params,
        lo=[max(v, -12) for v in region.lo],
        hi=[min(v, 12) for v in region.hi],
        balance_lo=dict(region.balance_lo),
        balance_hi=dict(region.balance_hi),
        total_parity=region.total_parity,
    )
    totals = {sum(t) for t in box._feasible_sums()}
    if got is None:
        assert not totals
        return
    low, high = got
    assert all(low <= total <= high for total in totals)
    for end in (low, high):
        if abs(end) != math.inf:
            x = region.point_of_total(end)
            assert sum(x) == end and in_region(region, x)


def test_total_range_far_from_zero():
    # x_1 in [E, E + 10] and x_2 free, with |x_2 - x_1| <= 3 (the balance of
    # block 1 is x_2 - x_1) and an even total: x_2 - x_1 is then even, so
    # the totals 2 x_1 + (x_2 - x_1) run from 2E - 2 to 2(E + 10) + 2.  A
    # scan of m out from 0 would take some 2E steps to reach them.
    e = 10**12
    region = Region(
        params=SVParams.of([1, 1], [1, 1]),
        lo=[e, -math.inf],
        hi=[e + 10, math.inf],
        balance_lo={1: -3},
        balance_hi={1: 3},
        total_parity=0,
    )
    assert region.total_range() == (2 * e - 2, 2 * e + 22)
    assert region.point_of_total(2 * e - 2) == (e, e - 2)
    assert region.point_of_total(2 * e + 22) == (e + 10, e + 12)
    region.hi[0] = math.inf
    assert region.total_range() == (2 * e - 2, math.inf)
    # x_2 - x_1 = 1 has the parity of the total, which is even: no point.
    region.balance_lo[1] = region.balance_hi[1] = 1
    assert region.total_range() is None


def test_an_unpruned_walk_opens_the_whole_box_at_its_last_level():
    params = SVParams.of([1, 2], [2, 1])
    region = Region(params=params, lo=[0, -1, 0], hi=[2, 1, 3])
    assert len(list(region._feasible_sums())) == 5 * 4  # block sums -1..3, 0..3
    with mock.patch.object(regions, "ENGINE_BUDGET", 5 * 4 - 1):
        with pytest.raises(regions.EngineOverflow):
            list(region._feasible_sums())


def test_points_are_walked_lazily():
    # One block of 12 coordinates in [-40, 40] makes its sum 0 in more than
    # 10^20 ways (stars and bars with inclusion-exclusion), so only a walk
    # that stops at its limit answers.  The first points ascending put -40
    # in every coordinate the rest of the block can still make up for, and
    # the greedy point, the lexicographically largest, puts 40 there.  On
    # one block the total is the block's sum.
    assert sum(
        (-1) ** j * math.comb(12, j) * math.comb(480 - 81 * j + 11, 11) for j in range(6)
    ) > 10**20
    region = Region(
        params=SVParams.of([1], [12]),
        lo=[-40] * 12,
        hi=[40] * 12,
        total_lo=0,
        total_hi=0,
    )
    assert region.enumerate_points(3) == [
        (-40,) * 6 + (40,) * 6,
        (-40,) * 5 + (-39, 39) + (40,) * 5,
        (-40,) * 5 + (-39, 40, 39) + (40,) * 4,
    ]
    assert region.find_point() == (40,) * 6 + (-40,) * 6
    assert region.max_total(point_limit=2) == (
        0, 3, [(-40,) * 6 + (40,) * 6, (-40,) * 5 + (-39, 39) + (40,) * 5]
    )



WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text()
)
GRID = [SVParams.of(i["a"], i["b"]) for i in WORKLOADS["grid"]]
WORKLOAD_INSTANCES = [
    (SVParams.of(i["a"], i["b"]), i["subset_cap"]) for items in WORKLOADS.values() for i in items
]


def test_total_range_is_the_scan_on_every_region_classify_reads(monkeypatch):
    # Every region whose range of totals `classify` reads, on the 231
    # workload instances and on (1,2),(1,b) with b <= 40 and the subset cap
    # lifted, against the scan and bisection the closed form replaced.
    # Each is compared when it is read, before its caller narrows it.
    total_range = Region.total_range
    read = []

    def checked(self):
        got = total_range(self)
        assert got == scan_total_range(self), (self.params, self.lo, self.hi)
        read.append(got)
        return got

    monkeypatch.setattr(Region, "total_range", checked)
    assert len(WORKLOAD_INSTANCES) == 231
    cm3 = [(SVParams.of([1, 2], [1, b]), b + 2) for b in range(1, 41)]
    for p, cap in WORKLOAD_INSTANCES + cm3:
        classify(p, subset_cap=cap)
    assert len(read) > 250
    assert None in read and any(r and r[1] != math.inf for r in read)


def test_greedy_point_is_the_walks_last_on_the_grid_hole_searches():
    # Every hole region of the grid, unnarrowed (normality) and narrowed to
    # every S_F (S' = S), on each feasible block-sum tuple of its region in
    # the box of `oracles.hole_cap` (`oracles.hole_region`), not only the
    # first: the greedy fill that `find_holes` and `find_point` take is the
    # lexicographically largest point, the last of the walk over the
    # tuple's points.  The closed forms of both searches read those
    # regions' first tuples (the S' = S one through the normality witness
    # on most instances), so every region is built here, whichever search
    # `classify` runs.
    searched = []
    for p in GRID:
        s = build_semigroup_from_params(p)

        def in_every_sf(region, s=s):
            for c in s.facet_classes:
                hoatrung._apply_membership_atom(region, s, c, c.mask, 1)

        searched += [hole_region(s, None, None), hole_region(s, None, in_every_sf)]
    tuples = [(region, s) for region in searched for s in region._feasible_sums()]
    assert len(searched) > 400 and len(tuples) > 1000
    for region, s in tuples:
        assert region._greedy_point(s) == max(region._points(s)), (region.params, s)


def run_sorted(params, t):
    """t with the values of each run of adjacent blocks with equal (a_i, b_i)
    sorted: one key per orbit of the swaps of such blocks."""
    out, start = [], 0
    for i in range(1, params.k + 1):
        if i == params.k or (params.a[i], params.b[i]) != (params.a[start], params.b[start]):
            out.extend(sorted(t[start:i]))
            start = i
    return tuple(out)


symmetric_specs = st.tuples(
    st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1)]), min_size=2, max_size=4),
    st.sampled_from([FULL, EVEN, BALANCED, ZERO]),
    st.none() | st.integers(0, 1),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 3)), min_size=2, max_size=2),
    st.none() | st.integers(-6, 2),
    st.none() | st.integers(-2, 6),
    st.none() | st.tuples(
        st.integers(1, 4), st.sampled_from(["lo", "hi", "balance_lo", "balance_hi"])
    ),
    st.none() | st.integers(0, 2),
)


@given(symmetric_specs)
@example(([(1, 2)] * 3, FULL, 1, [(0, 3), (0, 3)], 0, None, None, None))
@example(([(1, 2)] * 3, FULL, 1, [(0, 3), (0, 3)], 0, None, (2, "hi"), 1))
@example(([(1, 1)] * 4, FULL, None, [(-1, 3), (0, 0)], None, 2, (3, "balance_hi"), 0))
@settings(max_examples=400, deadline=None)
def test_symmetric_walk_keeps_one_tuple_per_orbit(spec):
    # The oracle's symmetric walk (`oracles.swap_walk`), the reference for
    # the first hole, keeps one tuple per orbit of the swaps of equal blocks
    # and starts where the plain walk does.
    shapes, form, parity, slot_bounds, bal_lo, bal_hi, perturb, residue = spec
    params = SVParams.of([a for a, _ in shapes], [b for _, b in shapes])
    if form == BALANCED and params.k != 2:
        form = FULL
    # Equal slots of every block get equal bounds, and every block the same
    # balance bounds, so blocks with equal (a_i, b_i) are equal in the region
    # until one block's bounds are moved.
    lo, hi = [], []
    for i in range(1, params.k + 1):
        for slot in range(params.b[i - 1]):
            start, width = slot_bounds[slot]
            lo.append(start)
            hi.append(start + width)
    weights = [3 * a + b for a, b in zip(params.a, params.b)]
    predicate = None
    if residue is not None:
        # Invariant under swapping blocks with equal (a_i, b_i) only.
        def predicate(sums):
            return (sum(w * x * x for w, x in zip(weights, sums)) + residue) % 3 != 0

    region = Region(params=params, lo=lo, hi=hi, total_parity=parity)
    constrain_to_group(region, form)
    for i in range(1, params.k + 1):
        if bal_lo is not None:
            region.clamp_balance_lo(i, bal_lo)
        if bal_hi is not None:
            region.clamp_balance_hi(i, bal_hi)
    if perturb is not None and perturb[0] <= params.k:
        i, bound = perturb
        pos = params.block_positions(i)[0]
        if bound == "lo":
            region.clamp_lo(pos, region.lo[pos] + 1)
        elif bound == "hi":
            region.clamp_hi(pos, region.hi[pos] - 1)
        elif bound == "balance_lo":
            region.balance_lo[i] = (bal_lo if bal_lo is not None else -6) + 1
        else:
            region.balance_hi[i] = (bal_hi if bal_hi is not None else 6) - 1

    plain = [t for t in region._feasible_sums() if predicate is None or predicate(t)]
    symmetric = list(swap_walk(region, predicate))
    walk = iter(plain)
    assert all(t in walk for t in symmetric)  # a subsequence of the plain walk
    assert symmetric[:1] == plain[:1]
    # Every orbit keeps a tuple, also where one block's bounds differ and
    # its orbit mates are outside the region.
    assert {run_sorted(params, t) for t in symmetric} == {
        run_sorted(params, t) for t in plain
    }
    if perturb is None:
        assert symmetric == [t for t in plain if run_sorted(params, t) == t]


# One semigroup of each closed-form group; the balanced one has two equal
# blocks, so its first point is also taken by the symmetric walk.
GROUP_SEMIGROUPS = {
    "full": (FULL, [1, 2], [1, 2]),
    "even": (EVEN, [2], [3]),
    "balanced": (BALANCED, [1, 1], [2, 2]),
    "zero": (ZERO, [1], [3]),
}


@pytest.mark.parametrize("group", sorted(GROUP_SEMIGROUPS))
@pytest.mark.parametrize("parity", [None, 0, 1])
@pytest.mark.parametrize("lo,hi", [(-2, 1), (-1, 2), (1, 2)])
def test_group_region_is_the_box_filtered_by_the_group(group, parity, lo, hi):
    form, a, b = GROUP_SEMIGROUPS[group]
    s = build_semigroup(a, b)
    assert s.group_form == form
    los = [lo - q % 2 for q in range(s.n)]
    his = [hi + q % 3 for q in range(s.n)]
    region = Region.of_group(s, list(los), list(his), parity)
    axes = [range(x, y + 1) for x, y in zip(los, his)]
    group = oracle_group(s)
    expected = sorted(
        v
        for v in itertools.product(*axes)
        if group.member(v) and parity in (None, sum(v) % 2)
    )
    assert sorted(region.enumerate_points(limit=10_000)) == expected
    first = next(swap_walk(region), None)
    assert region.find_point() == (None if first is None else region._greedy_point(first))
    assert (region.find_point() is not None) == bool(expected)
    best, count, points = region.max_total(point_limit=1_000)
    assert best == max(map(sum, expected), default=None)
    assert count == sum(1 for v in expected if sum(v) == best)
    assert sorted(points) == [v for v in expected if sum(v) == best]
    assert region.max_coordinate() == coordinate_maxima(expected, s.n)


@pytest.mark.parametrize("limit", [0, -1])
def test_enumerate_points_refuses_a_limit_below_one(limit):
    # Such a limit used to list one point, so a scan asking for none would
    # still read a nonempty region as empty only by accident of its caller.
    params = SVParams.of([1, 2], [1, 2])
    region = Region(params=params, lo=[-2] * params.n, hi=[2] * params.n)
    with pytest.raises(ValueError, match="limit must be a positive integer"):
        region.enumerate_points(limit)
    assert len(region.enumerate_points(1)) == 1


def test_queries_leave_no_reference_cycles():
    params = SVParams.of([1, 1, 1], [2, 2, 2])

    def region():
        return Region(params=params, lo=[0] * params.n, hi=[2] * params.n)

    gc.collect()
    gc.disable()
    try:
        list(region()._feasible_sums())
        region().find_point()
        region().enumerate_points(50)
        region().max_total()
        region().max_coordinate()
        assert gc.collect() == 0
    finally:
        gc.enable()
