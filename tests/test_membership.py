import itertools
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    BALANCED,
    EVEN,
    DenseLattice,
    cone_contains,
    dd_extreme_rays,
    decompose,
    dense_group,
    echelon_pivots,
    box,
    generator_vectors,
    hole_cap,
    is_sum_of_generators,
    narrowed_s_prime,
    oracle_group,
    plain_first_hole,
    primitive_pair_rays,
    walk_first_hole,
)
from svtangent.classify import classify, normalized_grid
from svtangent import hoatrung, membership, regions
from svtangent.hoatrung import (
    cm_verdict,
    gj_empty,
    gorenstein_witness,
    s_prime_equals_s,
    sf_member,
)
from svtangent.membership import (
    SemigroupMembership,
    find_holes,
    is_normal,
    is_smooth,
    pair_span_pivots,
    ray_span_index,
)
from svtangent.model import (
    AffineSemigroup,
    SVParams,
    build_semigroup,
    build_semigroup_from_params,
)

WORKLOAD_PARAMS = [
    SVParams.of(i["a"], i["b"])
    for items in json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text()
    ).values()
    for i in items
]


def box_holes(s, membership, radius):
    """Test-only point-by-point scan of [0, radius]^n: the sets of ambient
    holes (cone points outside the semigroup) and of group holes."""
    ambient = {
        v
        for v in itertools.product(range(radius + 1), repeat=s.n)
        if cone_contains(s.params, v) and not membership.member(v)
    }
    return ambient, {v for v in ambient if s.group_member(v)}


def unit_lattice(n):
    return DenseLattice(n, tuple(tuple(int(p == q) for q in range(n)) for p in range(n)))


def balanced(b1, b2):
    """The balanced group of two blocks of degree one and sizes b1 <= b2."""
    return dense_group(SVParams.of([1, 1], [b1, b2]), BALANCED)


@st.composite
def pair_graphs(draw):
    """(pairs, loop weights, group) on n <= 7 positions: any edges and
    loops of weight 1 or 2 in Z^n, edges and loops of weight 2 in the even
    group, or edges across the two blocks of the balanced group."""
    n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n))
    form = draw(st.sampled_from(["full", "even", "balanced"] if n > 1 else ["full", "even"]))
    if form == "balanced":
        m = draw(st.integers(1, n // 2))  # the blocks are sorted by size
        group, pair = balanced(m, n - m), st.tuples(st.integers(0, m - 1), st.integers(m, n - 1))
    else:
        p = st.integers(0, n - 1)
        pair = st.tuples(p, p).map(sorted).map(tuple)
        group = unit_lattice(n)
        if form == "even":
            group, weights = dense_group(SVParams.of([2], [n]), EVEN), [2] * n
    return draw(st.lists(pair, max_size=2 * n)), weights, group


def test_hole_cap():
    # The test box 2k(1 + B) - 1 of `oracles.hole_cap`: 2k - 1 with no
    # narrowing, and B read off the narrowed region's lower bounds.
    assert [hole_cap(build_semigroup([2] * k, [1] * k)) for k in (1, 2, 3)] == [1, 3, 5]
    s = build_semigroup([2, 2], [1, 1])
    assert hole_cap(s, lambda region: region.clamp_lo(0, 1)) == 7
    s = build_semigroup([1, 2], [1, 1])
    assert hole_cap(s, lambda region: region.clamp_balance_lo(1, 3)) == 15


class TestMember:
    def test_two_by_two_fixtures(self):
        s = build_semigroup([2, 2], [1, 1])
        m = SemigroupMembership(s)
        assert not m.member((1, 0))
        assert not m.member((3, 0))
        assert m.member((1, 1))
        assert m.member((2, 0))

    def test_mixed_degree_fixtures(self):
        s = build_semigroup([1, 2], [1, 1])
        m = SemigroupMembership(s)
        assert not m.member((0, 3))
        assert m.member((1, 2))

    def test_zero_vector(self):
        s = build_semigroup([1, 2], [1, 1])
        assert SemigroupMembership(s).member((0, 0))

    def test_zero_semigroup(self):
        s = build_semigroup([1], [2])
        m = SemigroupMembership(s)
        assert m.member((0, 0))
        assert not m.member((2, 0))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([2, 2], [1, 1]),
            ([1, 2], [1, 1]),
            ([1, 2], [1, 2]),
            ([3], [2]),
            ([2], [3]),
            ([1, 1], [2, 2]),
            ([1, 1, 2], [1, 1, 1]),
            ([3, 3], [1, 1]),
        ],
    )
    def test_agrees_with_brute_force(self, a, b):
        s = build_semigroup(a, b)
        m = SemigroupMembership(s)
        memo: dict = {}
        for v in itertools.product(range(7), repeat=s.n):
            assert m.member(v) == is_sum_of_generators(s, v, memo), v

    @pytest.mark.parametrize("length_change", [-1, 1])
    def test_a_point_of_another_length_is_refused(self, length_change):
        # On (1,2),(1,2), n = 3: (1, 1, 1, 99) was a member, and its
        # decomposition failed deep in the even-sum pairing.
        s = build_semigroup([1, 2], [1, 2])
        v = (1, 1, 1, 99)[: s.n + length_change]
        for entry in (s.membership.member, lambda v: decompose(s, v)):
            with pytest.raises(ValueError, match="not n = 3"):
                entry(v)
        with pytest.raises(ValueError, match="not n = 3"):
            v in s.membership

    def test_additivity(self):
        s = build_semigroup([1, 2], [1, 2])
        m = SemigroupMembership(s)
        members = [
            v for v in itertools.product(range(4), repeat=3) if m.member(v)
        ]
        for u, v in itertools.product(members[:12], members[:12]):
            w = tuple(a + b for a, b in zip(u, v))
            assert m.member(w)


class TestDecompose:
    @pytest.mark.parametrize(
        "a,b", [([2, 2], [1, 1]), ([1, 2], [1, 2]), ([3], [2]), ([1, 1, 1], [1, 1, 1])]
    )
    def test_witness_resums(self, a, b):
        s = build_semigroup(a, b)
        m = SemigroupMembership(s)
        for v in itertools.product(range(5), repeat=s.n):
            parts = decompose(s, v)
            if parts is None:
                assert not m.member(v)
                continue
            total = tuple(map(sum, zip(*parts))) if parts else (0,) * s.n
            assert total == v
            assert all(p in generator_vectors(s.params) for p in parts)

    def test_single_generator_witness(self):
        s = build_semigroup([1, 2], [1, 2])
        parts = decompose(s, (1, 1, 1))
        assert parts == [(1, 1, 1)] or tuple(map(sum, zip(*parts))) == (1, 1, 1)

    def test_zero_decomposition_is_empty(self):
        s = build_semigroup([2], [2])
        assert decompose(s, (0, 0)) == []

    def test_hole_has_no_decomposition(self):
        s = build_semigroup([3], [1])
        assert decompose(s, (1,)) is None

    def test_even_cone_points_decompose_into_degree_two_parts(self):
        # Constructive form of the cone description: even-sum cone points are
        # sums of generators of coordinate sum two.
        for a, b in [([2, 2], [1, 1]), ([1, 2], [1, 2]), ([1, 1, 1], [1, 1, 1]), ([3], [2])]:
            s = build_semigroup(a, b)
            m = SemigroupMembership(s)
            for v in itertools.product(range(7), repeat=s.n):
                if sum(v) % 2 or not cone_contains(s.params, v):
                    continue
                parts = decompose(s, v)
                assert parts is not None
                assert all(sum(p) == 2 for p in parts)


def assert_hole(s, e, radius):
    """e is a hole of the cone inside the box [0, radius]^n, checked
    directly: in the box, in the cone, and not in the semigroup."""
    assert all(0 <= x <= radius for x in e), e
    assert cone_contains(s.params, e), e
    assert not s.membership.member(e), e


class TestHoles:
    def test_single_block_degree_three(self):
        s = build_semigroup([3], [1])
        assert find_holes(s) == (1,)
        assert find_holes(s, narrow=lambda region: region.clamp_lo(0, 2)) is None
        assert box_holes(s, s.membership, 6) == ({(1,)}, {(1,)})

    def test_veronese_plane(self):
        s = build_semigroup([2], [2])
        assert find_holes(s) is None
        ambient, group = box_holes(s, s.membership, 4)
        assert not group
        assert all(sum(v) % 2 == 1 for v in ambient)
        assert_hole(s, (1, 0), 4)
        assert not s.group_member((1, 0))

    def test_triple_segre_no_group_holes(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert find_holes(s) is None

    def test_unit_vectors_are_holes_for_degree_three(self):
        s = build_semigroup([1, 3], [2, 2])
        assert_hole(s, (0, 0, 1, 0), 4)
        assert_hole(s, (0, 0, 0, 1), 4)

    def test_odd_axis_points_are_holes_for_degree_two(self):
        s = build_semigroup([2, 2], [1, 1])
        for t in (1, 3, 5):
            assert_hole(s, (t, 0), 6)
            assert_hole(s, (0, t), 6)


class TestHoleSearchAgainstBoxScan:
    """The block-sum hole search against a point-by-point scan of the box."""

    CASES = [
        ([3], [1], 8),  # its only facet has no generators: S_F = S
        ([3], [2], 6),
        ([2], [2], 6),  # even group
        ([2, 2], [1, 1], 6),
        ([2, 2], [1, 2], 5),
        ([1, 2], [1, 2], 5),
        ([1, 1], [2, 2], 4),  # balanced group
        ([1, 1, 1], [1, 1, 1], 5),
    ]

    @pytest.mark.parametrize("a,b,radius", CASES)
    def test_find_holes(self, a, b, radius):
        # Boxed, and narrowed to exclude each hole it finds by splitting the
        # box around that point, the first-hole search lists every group
        # hole of the box once.
        s = build_semigroup(a, b)
        _, group = box_holes(s, s.membership, radius)
        found, pending = [], [[]]
        while pending:
            bounds = pending.pop()

            def narrow(region, bounds=bounds):
                for pos, lo, hi in bounds:
                    region.clamp_lo(pos, lo)
                    region.clamp_hi(pos, hi)

            hole = find_holes(s, narrow=box(radius, narrow))
            if hole is None:
                continue
            assert hole not in found, hole
            found.append(hole)
            for i, x in enumerate(hole):
                fixed = bounds + [(j, hole[j], hole[j]) for j in range(i)]
                pending.append(fixed + [(i, 0, x - 1)])
                pending.append(fixed + [(i, x + 1, radius)])
        assert set(found) == group

    @pytest.mark.parametrize("a,b,radius", CASES)
    def test_first_searches_the_group_only(self, a, b, radius):
        s = build_semigroup(a, b)
        _, group = box_holes(s, s.membership, radius)
        hole = find_holes(s, narrow=box(radius))
        assert (hole is None) == (not group)
        assert hole is None or hole in group
        assert hole == plain_first_hole(s, radius)

    @pytest.mark.parametrize("a,b,radius", CASES)
    def test_is_normal(self, a, b, radius):
        # Every box here holds the test box 2k - 1 of `oracles.hole_cap`, so
        # it holds a hole iff the exact verdict says so.
        s = build_semigroup(a, b)
        _, group = box_holes(s, s.membership, radius)
        v = is_normal(s)
        assert v.is_normal == (not group)
        assert v.is_normal or v.witness in group
        assert hole_cap(s) == 2 * s.params.k - 1 <= radius

    @pytest.mark.parametrize("a,b,radius", CASES)
    def test_s_prime_equals_s(self, a, b, radius):
        s = build_semigroup(a, b)
        _, group = box_holes(s, s.membership, radius)
        in_s_prime = {x for x in group if all(sf_member(s, f, x).is_member for f in s.facets)}
        r = s_prime_equals_s(s)
        assert r.holds == (not in_s_prime)
        assert r.holds or r.witness in in_s_prime

    def test_both_answers_covered(self):
        normal, s_prime = set(), set()
        for a, b, radius in self.CASES:
            s = build_semigroup(a, b)
            normal.add(is_normal(s).is_normal)
            s_prime.add(s_prime_equals_s(s).holds)
        assert normal == s_prime == {True, False}

    def test_witness_is_the_engines_first_hole(self):
        # The first hole is the greedy realization of the first odd block-sum
        # tuple: the first unit vector of the last block of degree over one.
        # Reports name these points, so the choice is pinned.
        cases = [
            ([3], [2], (1, 0), (1, 0)),
            ([2, 2], [1, 2], (0, 1, 0), (1, 0, 0)),
            ([1, 3], [2, 2], (0, 0, 1, 0), (0, 0, 1, 0)),
        ]
        for a, b, hole, s_prime_witness in cases:
            s = build_semigroup(a, b)
            assert is_normal(s).witness == hole
            assert s_prime_equals_s(s).witness == s_prime_witness

    def test_full_box_radius(self):
        # The point-by-point scan shrank the box to fit a point budget: on
        # (1,2),(1,5) it scanned radius 7 of the requested 8.  Narrowed to
        # x_1 >= 8, the search still finds a hole.
        s = build_semigroup([1, 2], [1, 5])
        hole = find_holes(s, narrow=box(8, lambda region: region.clamp_lo(1, 8)))
        assert hole == (0, 8, 1, 0, 0, 0)
        assert_hole(s, hole, 8)


class TestSymmetricHoleSearch:
    """The predicate walk `find_holes` ran before the closed form, one
    block-sum tuple per orbit of the swaps of equal blocks, is the plain
    walk's, and the closed form finds its first hole, with and without the
    S' = S narrowing."""

    # The acceptance grid, its (1,1,1,1) extra and the Segre workload.
    INSTANCES = normalized_grid(3, 3, 3) + [
        SVParams.of(a, b)
        for a, b in [
            ([1] * 4, [1] * 4),
            ([1] * 3, [3] * 3),
            ([1] * 4, [1, 2, 2, 2]),
            ([1] * 4, [2] * 4),
        ]
    ]

    def test_first_hole_is_the_plain_walks(self):
        swapped = holes = narrowed_holes = 0
        for p in self.INSTANCES:
            s = build_semigroup_from_params(p)
            radius = 2 * (max(p.a) + 2)
            plain = plain_first_hole(s, radius)
            assert walk_first_hole(s, radius) == find_holes(s, narrow=box(radius)) == plain, p
            assert find_holes(s) == plain, p
            swapped += any(
                (p.a[i], p.b[i]) == (p.a[i + 1], p.b[i + 1]) for i in range(p.k - 1)
            )
            holes += plain is not None

            def in_every_sf(region):
                for c in s.facet_classes:
                    hoatrung._apply_membership_atom(region, s, c, c.mask, 1)

            plain = plain_first_hole(s, radius, in_every_sf)
            assert walk_first_hole(s, radius, in_every_sf) == plain, p
            assert find_holes(s, narrow=box(radius, in_every_sf)) == plain, p
            narrowed_holes += plain is not None
        # Every instance runs the narrowed search, rank-one cones included.
        assert len(self.INSTANCES) == 223
        assert (swapped, holes, narrowed_holes) == (94, 197, 192)


def checked_searches(monkeypatch) -> list:
    """Patch both bindings of `find_holes` (the normality search looks it up
    in `membership`, the S' = S search in `hoatrung`) to compare each answer
    with the predicate walk `oracles.walk_first_hole` on the same region, in
    the box of `oracles.hole_cap`; the returned list collects the answers."""
    answers = []

    def checked(find):
        def search(s, *, narrow=None):
            got = find(s, narrow=narrow)
            assert got == walk_first_hole(s, None, narrow), s.params
            answers.append(got)
            return got

        return search

    monkeypatch.setattr(membership, "find_holes", checked(membership.find_holes))
    monkeypatch.setattr(hoatrung, "find_holes", checked(hoatrung.find_holes))
    return answers


narrowings = st.lists(
    st.tuples(
        st.sampled_from(
            ["clamp_lo", "clamp_hi", "clamp_balance_lo", "clamp_balance_hi",
             "total_hi", "total_lo"]
        ),
        st.integers(0, 20),
        st.integers(-4, 8),
    ),
    max_size=4,
)


class TestClosedFormHoles:
    """`find_holes` reads the first hole off the blocks; the predicate walk
    it replaced (`oracles.walk_first_hole`) is the reference."""

    def test_sweep_444_normality_and_s_prime_searches(self, monkeypatch):
        answers = checked_searches(monkeypatch)
        grid = normalized_grid(4, 4, 4)
        assert len(grid) == 4844
        for p in grid:
            s = build_semigroup_from_params(p)
            is_normal(s)
            s_prime_equals_s(s)
        # Both searches ran, and both found holes and proved there were none.
        assert len(answers) > len(grid)
        assert None in answers and any(answers)

    def test_workload_searches(self, monkeypatch):
        answers = checked_searches(monkeypatch)
        assert len(WORKLOAD_PARAMS) == 231
        for p in WORKLOAD_PARAMS:
            s = build_semigroup_from_params(p)
            is_normal(s)
            s_prime_equals_s(s)
        assert None in answers and any(answers)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), min_size=1, max_size=3),
        st.integers(1, 7),
        narrowings,
    )
    @example([(2, 1)], 6, [("clamp_lo", 0, 2)])
    @example([(1, 1), (2, 2)], 5, [("clamp_balance_lo", 1, 3), ("total_hi", 0, 3)])
    @example([(2, 2), (3, 1)], 5, [("clamp_balance_hi", 2, -4)])
    @example([(2, 1), (2, 1)], 4, [("total_lo", 0, 3), ("clamp_hi", 1, 0)])
    @settings(max_examples=300, deadline=None)
    def test_random_narrowings(self, blocks, radius, steps):
        s = build_semigroup([a for a, _ in blocks], [b for _, b in blocks])

        def narrow(region):
            for name, index, value in steps:
                if name in ("total_lo", "total_hi"):
                    setattr(region, name, value)
                elif name in ("clamp_lo", "clamp_hi"):
                    getattr(region, name)(index % s.n, value)
                else:
                    getattr(region, name)(1 + index % s.params.k, value)

        hole = find_holes(s, narrow=box(radius, narrow))
        assert hole == walk_first_hole(s, radius, narrow) == plain_first_hole(s, radius, narrow)
        if hole is not None:
            assert_hole(s, hole, radius)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.sampled_from(["clamp_lo", "clamp_balance_lo", "total_lo"]),
                      st.integers(0, 20), st.integers(0, 5)),
            max_size=3,
        ),
    )
    @example([(1, 1), (2, 1)], [("clamp_balance_lo", 0, 3)])
    @example([(2, 1), (2, 2)], [("clamp_lo", 1, 4), ("total_lo", 0, 5)])
    @settings(max_examples=200, deadline=None)
    def test_lower_bound_narrowings_need_no_box(self, blocks, steps):
        # Under lower bounds alone, the unboxed search finds the plain
        # walk's first hole in the box of `oracles.hole_cap`, 2k(1 + B) - 1
        # with B the largest lower bound, or none where the walk finds none.
        s = build_semigroup([a for a, _ in blocks], [b for _, b in blocks])

        def narrow(region):
            for name, index, value in steps:
                if name == "total_lo":
                    region.total_lo = value
                elif name == "clamp_lo":
                    region.clamp_lo(index % s.n, value)
                else:
                    region.clamp_balance_lo(1 + index % s.params.k, value)

        hole = find_holes(s, narrow=narrow)
        assert hole == plain_first_hole(s, narrow=narrow)
        if hole is not None:
            assert_hole(s, hole, hole_cap(s, narrow))

    def test_a_box_of_radius_2k_minus_1_misses_a_far_hole(self):
        # On (1,2),(1,3), with every coordinate of block 2 at least 50, the
        # least hole is s e_2 at the least odd s >= 150.  The box of radius
        # 2k - 1 = 3 holds none; the test box with B = 150 holds it.
        s = build_semigroup([1, 2], [1, 3])

        def far(region):
            for q in (1, 2, 3):
                region.clamp_lo(q, 50)

        assert find_holes(s, narrow=far) == (0, 51, 50, 50)
        assert find_holes(s, narrow=box(3, far)) is None
        assert hole_cap(s, far) == 2 * 2 * (1 + 150) - 1
        assert plain_first_hole(s, narrow=far) == (0, 51, 50, 50)

    def test_witness_recheck_refuses_a_decomposed_hole(self, monkeypatch):
        # With the knapsack patched to decompose every tuple, the re-check
        # of the closed form's witness refuses it: in the unnarrowed search
        # of a new semigroup, and in the narrowed S' = S search of one whose
        # normality verdict was kept before the patch ((2,2),(1,2) has its
        # hole (0, 1, 0) outside S', and S' != S at (1, 0, 0)).
        s = build_semigroup([2, 2], [1, 2])
        assert is_normal(s).witness == (0, 1, 0)
        monkeypatch.setattr(membership, "_sum_of_shapes", lambda s, sums, memo=None: True)
        with pytest.raises(RuntimeError, match="no hole"):
            is_normal(build_semigroup([2, 2], [1, 2]))
        assert is_normal(s).witness == (0, 1, 0)
        with pytest.raises(RuntimeError, match="no hole"):
            s_prime_equals_s(s)


SMALL_BLOCK_TYPES = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2)),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[:2],
).map(
    lambda types: SVParams.of(
        [a for a, _, m in types for _ in range(m)], [b for _, b, m in types for _ in range(m)]
    )
)


class TestFastPathsAgainstTheRoutesTheyReplaced:
    """The unnarrowed `find_holes` in closed form against the walks, and S'
    = S read off the normality witness against the narrowed search it ran
    on every cone that is not normal (`oracles.narrowed_s_prime`)."""

    def test_sweep_444_and_workloads(self):
        fails = off_witness = 0
        for p in normalized_grid(4, 4, 4) + WORKLOAD_PARAMS:
            s = build_semigroup_from_params(p)
            got = s_prime_equals_s(s)
            assert got == narrowed_s_prime(s), p
            if not got.holds:
                fails += 1
                off_witness += got.witness != is_normal(s).witness
        # 4,764 of sweep(4, 4, 4) and 192 of the workloads have S' != S; 3
        # and 2 of them at a hole other than the first.
        assert (fails, off_witness) == (4764 + 192, 3 + 2)

    @pytest.mark.parametrize("b", range(1, 41))
    def test_cm3(self, b):
        s = build_semigroup([1, 2], [1, b])
        assert s_prime_equals_s(s) == narrowed_s_prime(s) == hoatrung.SPrimeResult("holds")
        assert not is_normal(s).is_normal

    @given(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8)),
        min_size=1, max_size=3, unique_by=lambda t: t[:2],
    ))
    @example([(2, 2, 1), (2, 1, 1)])
    @example([(1, 1, 1), (2, 1, 8)])
    @settings(max_examples=150, deadline=None)
    def test_block_types(self, types):
        s = build_semigroup(
            [a for a, _, m in types for _ in range(m)], [b for _, b, m in types for _ in range(m)]
        )
        assert s_prime_equals_s(s) == narrowed_s_prime(s), s.params

    @given(SMALL_BLOCK_TYPES)
    @example(SVParams.of([1, 1], [1, 1]))
    @example(SVParams.of([2, 2, 1], [1, 1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_first_hole_on_block_types(self, p):
        s = build_semigroup_from_params(p)
        assert find_holes(s) == walk_first_hole(s) == plain_first_hole(s), p


class TestNormal:
    def test_segre_family_normal(self):
        for b in [[1, 1], [1, 3], [2, 2]]:
            s = build_semigroup([1, 1], b)
            v = is_normal(s)
            assert v.is_normal
            assert v.to_dict() == {"verdict": "normal"}

    def test_veronese_family_normal(self):
        for b in [[1], [2], [3]]:
            assert is_normal(build_semigroup([2], b)).is_normal

    def test_mixed_degree_not_normal_with_witness(self):
        v = is_normal(build_semigroup([1, 2], [1, 1]))
        assert not v.is_normal
        assert v.witness == (0, 1)

    def test_degree_three_not_normal(self):
        v = is_normal(build_semigroup([3], [2]))
        assert not v.is_normal
        s = build_semigroup([3], [2])
        assert cone_contains(s.params, v.witness)
        assert not SemigroupMembership(s).member(v.witness)

    def test_witness_is_a_true_hole(self):
        for a, b in [([2, 2], [1, 2]), ([1, 1, 2], [1, 1, 1]), ([3, 3], [1, 1])]:
            s = build_semigroup(a, b)
            v = is_normal(s)
            assert not v.is_normal
            assert cone_contains(s.params, v.witness)
            assert s.group_member(v.witness)
            assert not SemigroupMembership(s).member(v.witness)


class TestOneEnginePerSemigroup:
    """The semigroup owns its membership engine and its normality verdict:
    the verdict functions share them instead of rebuilding them."""

    def test_engine_built_once(self, monkeypatch):
        s = build_semigroup([1, 2], [1, 1])
        engines, searches = [], []
        init = SemigroupMembership.__init__

        def counted_init(self, semigroup):
            engines.append(semigroup.params)
            init(self, semigroup)

        # `is_normal` looks `find_holes` up in the membership module; the
        # narrowed S' = S search goes through the hoatrung binding.
        find = membership.find_holes

        def counted_find(semigroup, **kwargs):
            searches.append(kwargs.get("narrow"))
            return find(semigroup, **kwargs)

        monkeypatch.setattr(SemigroupMembership, "__init__", counted_init)
        monkeypatch.setattr(membership, "find_holes", counted_find)
        for _ in range(2):
            assert not is_normal(s).is_normal
            assert not is_smooth(s).is_smooth
            assert s_prime_equals_s(s).holds
            assert cm_verdict(s).is_cm
            assert not gj_empty(s, s.facets[:1]).is_empty
            assert gorenstein_witness(s).is_consistent
        assert engines == [s.params]
        # One unnarrowed search per semigroup: the semigroup keeps its
        # verdict.
        assert searches == [None]
        assert is_normal(s) is s.normality

    @pytest.mark.parametrize(
        "a,b,narrowed",
        [([1, 2], [1, 8], 1), ([1, 3], [1, 1], 0), ([2, 2], [1, 2], 1), ([1, 1, 1], [2, 2, 2], 0)],
        ids=["CM, not normal", "not CM", "not CM, hole outside S'", "normal"],
    )
    @pytest.mark.parametrize("evidence", [False, True])
    def test_classify_searches_once(self, a, b, narrowed, evidence, monkeypatch):
        # `classify`, `is_smooth` and S' = S all read normality, and the
        # unnarrowed search (the membership binding) runs once; the narrowed
        # S' = S search (the hoatrung binding) runs once where the cone is
        # not normal and its first hole lies outside S', and nowhere else.
        searches = []

        def counted(binding):
            find = binding.find_holes

            def counted_find(semigroup, **kwargs):
                searches.append(binding.__name__)
                return find(semigroup, **kwargs)

            monkeypatch.setattr(binding, "find_holes", counted_find)

        counted(membership)
        counted(hoatrung)
        classify(SVParams.of(a, b), full_evidence=evidence)
        assert searches == ["svtangent.membership"] + ["svtangent.hoatrung"] * narrowed

    def test_flags_are_keyword_only(self):
        # A stale positional radius or engine must not be taken for
        # `narrow`: the search has no box.
        s = build_semigroup([3], [1])
        with pytest.raises(TypeError):
            find_holes(s, 6)
        with pytest.raises(TypeError):
            find_holes(s, s.membership)
        with pytest.raises(TypeError):
            is_normal(s, 6)


class TestOverBudget:
    """The hole searches walk nothing, so the engine budget never stops
    them; the walks that remain raise `EngineOverflow` during the walk."""

    @pytest.mark.parametrize(
        "a,b", [([1] * 6, [3] * 6), ([1, 1, 1], [3, 3, 3]), ([1, 2], [1, 8])]
    )
    def test_hole_searches_decide_at_no_budget(self, a, b, monkeypatch):
        # The predicate walk of (1)^6,(3)^6, capped at total 11, opened 106
        # values at its widest level, and that of (1,1,1),(3,3,3) 6; a budget
        # below made normality undetermined, and S' = S and the report's
        # normality with it.  The closed form decides both at budget 0 as at
        # the default budget, as does the report of (1,2),(1,8), which is
        # not normal and runs the narrowed S' = S search.
        def answers():
            s = build_semigroup(a, b)
            report = classify(SVParams.of(a, b))
            return is_normal(s), is_smooth(s), s_prime_equals_s(s), report.normal, report.smooth

        want = answers()
        monkeypatch.setattr(regions, "ENGINE_BUDGET", 0)
        assert answers() == want

    def test_gorenstein_scan_reports_an_overflow(self, monkeypatch):
        # The top of G_F is one small box; no budget but 0 refuses its walk.
        s = build_semigroup([1, 1, 1], [3, 3, 3])
        monkeypatch.setattr(regions, "ENGINE_BUDGET", 0)
        gor = gorenstein_witness(s)
        assert gor.status == "undetermined"
        assert gor.reason.startswith("region scan over budget: ")

    def test_box_product_over_budget_walk_within(self):
        # (1,1,1,3),(5,5,5,5): the box product of the hole search is 51^4,
        # about 6.8 * 10^6; the predicate walk opened a few hundred values,
        # and the closed form reads four blocks.
        s = build_semigroup([1, 1, 1, 3], [5, 5, 5, 5])
        normal = is_normal(s)
        assert normal.witness == (0,) * 15 + (1, 0, 0, 0, 0)
        assert s_prime_equals_s(s).witness == normal.witness
        assert cm_verdict(s).status == "not-cm"

    def test_overflow_comes_during_the_walk(self, monkeypatch):
        monkeypatch.setattr(regions, "ENGINE_BUDGET", 100)
        params = SVParams.of([1, 1, 1], [3, 3, 3])
        # Block ranges 0..18 and no other constraint: every frame of the walk
        # opens 19 values, so it yields the leaves of five last-level frames
        # before the sixth passes the budget.
        walk = regions.Region(params=params, lo=[0] * 9, hi=[6] * 9)._feasible_sums()
        assert len(list(itertools.islice(walk, 95))) == 95
        with pytest.raises(regions.EngineOverflow, match="more than 100 values at block 3"):
            next(walk)

    @pytest.mark.parametrize("a,b", [([1, 1], [1, 1]), ([2], [1])])
    def test_even_groups_decide_normal_with_no_budget(self, a, b, monkeypatch):
        # The balanced and the even group have no odd total, so their hole
        # regions are infeasible before any block is read.
        monkeypatch.setattr(regions, "ENGINE_BUDGET", 0)
        s = build_semigroup(a, b)
        assert find_holes(s) is None
        assert is_normal(s).status == "normal"
        assert s_prime_equals_s(s).holds


class TestSmooth:
    def test_smooth_cases(self):
        assert is_smooth(build_semigroup([1, 1], [1, 3])).is_smooth
        assert is_smooth(build_semigroup([2], [1])).is_smooth
        assert is_smooth(build_semigroup([1], [1])).is_smooth
        assert is_smooth(build_semigroup([1], [3])).is_smooth
        assert is_smooth(build_semigroup([1, 1], [1, 1])).is_smooth

    def test_not_smooth_cases(self):
        assert not is_smooth(build_semigroup([2], [2])).is_smooth
        assert not is_smooth(build_semigroup([1, 1], [2, 2])).is_smooth
        assert not is_smooth(build_semigroup([1, 1, 1], [1, 1, 1])).is_smooth
        assert not is_smooth(build_semigroup([1, 2], [1, 1])).is_smooth
        assert not is_smooth(build_semigroup([3], [1])).is_smooth

    def test_counts_rays_before_building_them(self, monkeypatch):
        # (1,1),(8,8) has 64 ray masks for rank 15: the count refutes, and
        # no ray is listed or read.
        def refuse(*args):
            raise AssertionError("a ray was read")

        monkeypatch.setattr(membership, "pair_span_pivots", refuse)
        monkeypatch.setattr(AffineSemigroup, "ray_pairs", property(refuse))
        smooth = is_smooth(build_semigroup([1, 1], [8, 8]))
        assert (smooth.status, smooth.reason) == ("not-smooth", "64 extreme rays for rank 15")

    def test_index_of_the_ray_span(self):
        # As many rays as the rank, but 2 e_p span a sublattice of index
        # 2^(b-1) in the even group of (2),(b); the rays of (1,1,1),(1,1,1)
        # close an odd triangle, of index 2 in Z^3.
        for b in (2, 3, 5):
            smooth = is_smooth(build_semigroup([2], [b]))
            assert smooth.reason == f"ray generators span a sublattice of index {2 ** (b - 1)}"
        smooth = is_smooth(build_semigroup([1, 1, 1], [1, 1, 1]))
        assert smooth.reason == "ray generators span a sublattice of index 2"

    def test_no_dense_ray(self):
        # The index of 3,200 rays of length 3,200 comes off their pairs: the
        # dense rays alone took 80 MiB.
        s = build_semigroup([2], [3200])
        assert is_normal(s).is_normal
        tracemalloc.start()
        try:
            smooth = is_smooth(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert smooth.reason == f"ray generators span a sublattice of index {2 ** 3199}"

    @pytest.mark.parametrize(
        "family,seen",
        [
            (normalized_grid(3, 3, 3), {1, 2, 4}),
            (WORKLOAD_PARAMS, {1, 2, 4, 16, 128}),
            ([SVParams.of([2], [b]) for b in range(1, 201)], {1, 2, 2**199}),
            ([SVParams.of([1, 1], [1, b]) for b in range(1, 41)], {1}),
            ([SVParams.of([1, 2], [b, 1]) for b in range(1, 21)], {1}),
            ([SVParams.of([1, 1, 1], [1, 1, 1])], {2}),
        ],
        ids=["grid", "workloads", "(2),(b<=200)", "(1,1),(1,b<=40)", "(1,2),(b<=20,1)", "(1,1,1),(1,1,1)"],
    )
    def test_span_index_matches_the_dense_index(self, family, seen):
        # Wherever the rays are as many as the rank, the index of their span
        # read off their pairs against one echelon pass over the dense rays.
        indices = set()
        for p in family:
            s = build_semigroup_from_params(p)
            if not s.facets or s.ray_count != s.rank:
                continue
            index = ray_span_index(s)
            assert index == oracle_group(s).index_of(primitive_pair_rays(s)), p
            indices.add(index)
        assert seen <= indices, indices

    @given(pair_graphs())
    # An even 4-cycle in Z^4, and across the two blocks of the balanced
    # group; two tree components; a spanning tree of the balanced group; a
    # tree beside a closed component; an odd triangle with a tail beside a
    # loop of weight 2.
    @example(([(0, 1), (1, 2), (2, 3), (0, 3)], [1] * 4, unit_lattice(4)))
    @example(([(0, 2), (0, 3), (1, 2), (1, 3)], [2] * 4, balanced(2, 2)))
    @example(([(0, 1), (2, 3)], [1] * 4, unit_lattice(4)))
    @example(([(0, 1), (0, 2)], [2] * 3, balanced(1, 2)))
    @example(([(0, 1), (1, 2), (3, 3)], [2] * 4, unit_lattice(4)))
    @example(([(0, 1), (1, 2), (0, 2), (2, 3), (4, 4)], [2] * 5, unit_lattice(5)))
    @settings(max_examples=400, deadline=None)
    def test_pair_graphs_match_the_echelon_pass(self, graph):
        # Pair lists no model produces, against one echelon pass over the
        # dense vectors they stand for, all in the group: the same rank and
        # pivot product, and the same index in the group or None.
        pairs, weights, group = graph
        n, vectors = group.dim, []
        for p, q in pairs:
            v = [0] * n
            if p == q:
                v[p] = weights[p]
            else:
                v[p] = v[q] = 1
            assert group.member(v), (pairs, v)
            vectors.append(v)
        rank, product = pair_span_pivots(pairs, n, weights.__getitem__)
        assert (rank, product) == echelon_pivots(vectors, n), pairs
        index = product // group._pivot_product() if rank == group.rank else None
        assert index == group.index_of(vectors), pairs

    def test_incidence_rays_match_dd_oracle(self):
        # The rays of the smoothness test, read from the facet-incidence
        # table, against the double-description oracle wherever it runs.
        checked = 0
        for p in normalized_grid(3, 3, 3):
            if p.n > 6:
                continue
            s = build_semigroup_from_params(p)
            assert primitive_pair_rays(s) == dd_extreme_rays(s), p
            checked += 1
        assert checked == 155
