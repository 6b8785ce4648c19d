import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from svtangent.model import GROUP_BALANCED, GROUP_EVEN, GROUP_FULL, SVParams
from svtangent.regions import Region


def brute_force(region):
    """All points of the region by filtering the whole box."""
    p = region.params
    axes = [range(region.lo[q], region.hi[q] + 1) for q in range(p.n)]
    out = []
    for v in itertools.product(*axes):
        total = sum(v)
        if region.total_parity is not None and total % 2 != region.total_parity:
            continue
        if region.group_tag == GROUP_EVEN and total % 2:
            continue
        if region.group_tag == GROUP_BALANCED and p.block_sum(v, 1) != p.block_sum(v, 2):
            continue
        ok = True
        for i, lo in region.balance_lo.items():
            if total - 2 * p.block_sum(v, i) < lo:
                ok = False
        for i, hi in region.balance_hi.items():
            if total - 2 * p.block_sum(v, i) > hi:
                ok = False
        if region.sum_predicate is not None:
            sums = tuple(p.block_sum(v, i) for i in range(1, p.k + 1))
            ok = ok and region.sum_predicate(sums)
        if ok:
            out.append(v)
    return sorted(out)


region_specs = st.tuples(
    st.sampled_from([((1, 2), (2, 1)), ((1, 1), (1, 2)), ((2,), (3,))]),
    st.sampled_from([GROUP_FULL, GROUP_EVEN, GROUP_BALANCED]),
    st.none() | st.integers(0, 1),
    st.lists(st.tuples(st.integers(-3, 1), st.integers(-1, 3)), min_size=4, max_size=4),
    st.none() | st.integers(-2, 2),
)


@given(region_specs)
@settings(max_examples=250, deadline=None)
def test_engine_matches_brute_force(spec):
    (a, b), tag, parity, bounds, balance_hi = spec
    params = SVParams.of(list(a), list(b))
    if tag == GROUP_BALANCED and params.k != 2:
        tag = GROUP_FULL
    n = params.n
    lo = [min(x, y) for x, y in bounds[:n]]
    hi = [max(x, y) for x, y in bounds[:n]]
    region = Region(params=params, lo=lo, hi=hi, group_tag=tag, total_parity=parity)
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
    for pos in range(n):
        want = max((v[pos] for v in expected), default=None)
        assert region.max_coordinate(pos) == want


@given(
    st.sampled_from([((1, 2), (2, 1)), ((1, 1), (1, 2)), ((2,), (3,))]),
    st.none() | st.integers(0, 1),
    st.integers(0, 2),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_sum_predicate_matches_brute_force(blocks, parity, residue, cut):
    # The predicate sees block sums only, as the shifted-copy check uses it.
    a, b = blocks
    params = SVParams.of(list(a), list(b))
    n = params.n
    region = Region(
        params=params,
        lo=[-2] * n,
        hi=[min(2, c) for c in cut[:n]],
        total_parity=parity,
        sum_predicate=lambda sums: (sums[0] - 2 * sums[-1]) % 3 != residue,
    )
    expected = brute_force(region)
    assert sorted(region.enumerate_points(limit=10_000)) == expected
    assert (region.find_point() is not None) == bool(expected)
    best, count, _ = region.max_total(point_limit=1_000)
    assert best == max((sum(v) for v in expected), default=None)
    if expected:
        assert count == sum(1 for v in expected if sum(v) == best)
    for pos in range(n):
        want = max((v[pos] for v in expected), default=None)
        assert region.max_coordinate(pos) == want
