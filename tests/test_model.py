import importlib
import itertools
import json
import math
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    BALANCED,
    EVEN,
    FULL,
    ZERO,
    DenseLattice,
    OracleUnavailable,
    _is_generator,
    block_facet_list,
    block_free_counts,
    block_spans_closed_form,
    block_sum_tuples,
    class_sf_scan,
    cone_contains,
    counted_facet_sums,
    dense,
    dense_facet_sums,
    dense_group,
    every_sum_two_mask,
    exponent_primitives_in_group,
    facet_gcd,
    facet_generators,
    facet_oracle,
    facet_premise_holds,
    generator_vectors,
    hermite_span_certificate,
    hermite_sublattice,
    hnf_facet_list,
    incidence_masks,
    listed_facet_gcd,
    listed_odd_shape,
    low_generators,
    oracle_group,
    pair_ray_count,
    position_facet_list,
    primitive,
    primitive_in_group,
    primitive_pair_rays,
    product_filter_generators,
    rank_extreme_rays,
    rank_facet_list,
    row_block_sums,
    smith_normal_form,
    sparse_basis_rows,
    written_decomposition,
)
from svtangent import hoatrung, model
from svtangent.hoatrung import build_profiles
from svtangent.membership import ray_span_index
from svtangent.model import (
    FacetId,
    SVParams,
    build_semigroup,
    build_semigroup_from_params,
    closed_form_group,
    facet_list,
    facet_value,
    maximal_masks,
    sum_two_masks,
)


def grid_params(max_k=3, max_a=3, max_b=3):
    """All normalized parameter tuples with k <= max_k, a_i <= max_a, b_i <= max_b."""
    out = []
    for k in range(1, max_k + 1):
        pairs = itertools.combinations_with_replacement(
            itertools.product(range(1, max_a + 1), range(1, max_b + 1)), k
        )
        for combo in pairs:
            a = [p[0] for p in combo]
            b = [p[1] for p in combo]
            out.append(SVParams.of(a, b))
    return out


# The tops of the scaling ladder with the largest blocks: 3^14 box tuples
# behind 224 generators, and n = 20.
LADDER_TOPS = [SVParams.of([1, 2], [1, 14]), SVParams.of([1, 1], [10, 10])]

# Ladder rungs and edge instances beyond the grid, up to 12,075 generators
# on (1,1,1,3),(5,5,5,5) and 60 facets on (2),(60).
BEYOND_GRID = [
    SVParams.of(a, b)
    for a, b in [
        ([2], [40]),
        ([2], [60]),
        ([1, 1], [20, 20]),
        ([1, 2], [1, 22]),
        ([1, 1, 1], [8, 8, 8]),
        ([1] * 6, [3] * 6),
        ([1, 1, 1, 3], [5, 5, 5, 5]),
    ]
]


class TestParams:
    def test_normalization_sorts_pairs(self):
        p = SVParams.of([2, 1], [3, 1])
        assert p.a == (1, 2)
        assert p.b == (1, 3)
        assert p.permutation == (1, 0)
        assert p.original_a == (2, 1)

    def test_tie_broken_by_b(self):
        p = SVParams.of([1, 1], [3, 1])
        assert p.b == (1, 3)

    def test_equality_ignores_original_order(self):
        assert SVParams.of([2, 1], [1, 2]) == SVParams.of([1, 2], [2, 1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SVParams.of([0], [1])
        with pytest.raises(ValueError):
            SVParams.of([1, 1], [1])
        with pytest.raises(ValueError):
            SVParams.of([True, 1, 1], [1, 1, True])

    @pytest.mark.parametrize(
        "a,b,message",
        [
            ((1,), (), "nonempty and of equal length"),
            ((), (), "nonempty and of equal length"),
            ((1,), (-1,), "positive integers"),
            ((0,), (1,), "positive integers"),
            ((1, True), (1, 1), "positive integers"),
            ((2, 1), (1, 1), "lexicographic order"),
            ((1, 1), (2, 1), "lexicographic order"),
            # Lists would pass every other check, but the value must hash.
            ([1, 2], [1, 1], "tuples; use SVParams.of"),
            ((1, 2), [1, 1], "tuples; use SVParams.of"),
        ],
    )
    def test_direct_construction_is_checked(self, a, b, message):
        # The checks of `of` hold for every instance, not only for those
        # built through it; unchecked, (1,),() classified yes/yes/yes/yes.
        with pytest.raises(ValueError, match=message):
            SVParams(a=a, b=b)

    def test_every_normalized_instance_hashes(self):
        # `of` takes any sequences and stores tuples, so each result hashes.
        params = grid_params()
        assert len({p: hash(p) for p in params}) == len(params)
        assert hash(SVParams.of(range(2, 0, -1), (3, 1))) == hash(SVParams.of([1, 2], [1, 3]))

    def test_direct_construction_of_normalized_pairs(self):
        assert SVParams(a=(1, 1, 2), b=(1, 3, 1)) == SVParams.of([2, 1, 1], [1, 3, 1])

    @given(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4).flatmap(
            lambda pairs: st.tuples(
                st.just(SVParams.of(*zip(*pairs))),
                st.lists(
                    st.integers(-50, 50),
                    min_size=sum(b for _, b in pairs),
                    max_size=sum(b for _, b in pairs),
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_block_sums_are_the_block_sum_of_each_block(self, case):
        p, v = case
        want = tuple(p.block_sum(v, i) for i in range(1, p.k + 1))
        assert p.block_sums(v) == p.block_sums(tuple(v)) == want

    def test_indices_lexicographic(self):
        p = SVParams.of([1, 2], [2, 1])
        assert p.indices() == [(1, 1), (1, 2), (2, 1)]
        assert p.position(2, 1) == 2

    def test_cached_block_starts_leave_hash_eq_repr_and_pickle_alone(self):
        # The block starts are computed once and kept beside the fields,
        # which alone make the value: its hash, equality, repr and pickled
        # round trip are those of the fields, before and after the read.
        p = SVParams.of([2, 1], [3, 1])
        want = (
            "SVParams(a=(1, 2), b=(1, 3), "
            "original_a=(2, 1), original_b=(3, 1), permutation=(1, 0))"
        )
        fresh = SVParams.of([2, 1], [3, 1])
        assert (repr(p), hash(p)) == (want, hash(((1, 2), (1, 3))))
        assert p.block_starts == (0, 1, 4) and "block_starts" in vars(p)
        assert (repr(p), hash(p), p) == (want, hash(fresh), fresh)
        assert "block_starts" not in vars(fresh)
        for q in (p, fresh):
            back = pickle.loads(pickle.dumps(q))
            assert (back, repr(back), hash(back)) == (q, want, hash(q))
            assert back.block_starts == (0, 1, 4)
        assert (p.n, list(p.block_positions(2)), p.position(2, 3), p.block_of(3)) == (
            4, [1, 2, 3], 3, 2
        )


class TestGenerators:
    def test_two_by_two_on_singleton_blocks(self):
        gens = generator_vectors(SVParams.of([2, 2], [1, 1]))
        assert set(gens) == {(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)}

    def test_segre_point(self):
        p = SVParams.of([1, 1], [1, 1])
        assert (generator_vectors(p), incidence_masks(p, ())) == (((1, 1),), (0,))

    def test_degree_one_single_block_is_empty(self):
        for b in range(1, 4):
            p = SVParams.of([1], [b])
            assert (generator_vectors(p), incidence_masks(p, ())) == ((), ())

    def test_graded_lex_order(self):
        gens = generator_vectors(SVParams.of([2, 2], [1, 1]))
        keys = [(sum(g), g) for g in gens]
        assert keys == sorted(keys)

    def test_unit_tuples_for_all_degree_one(self):
        gens = generator_vectors(SVParams.of([1, 1, 1], [1, 1, 1]))
        assert set(gens) == {(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


def box_points(n, count=500, seed=0):
    """Every point of [-1, 1]^n when there are at most `count`, otherwise
    `count` points drawn from [-2, 2]^n with a fixed seed."""
    if 3**n <= count:
        return list(itertools.product(range(-1, 2), repeat=n))
    rng = random.Random(seed)
    return [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)]


class TestGroup:
    def test_balanced_case(self):
        s = build_semigroup([1, 1], [2, 2])
        assert s.group_form == BALANCED
        assert s.rank == 3
        group = oracle_group(s)
        for v in itertools.product(range(-2, 3), repeat=4):
            in_group = (v[0] + v[1]) == (v[2] + v[3])
            assert group.member(v) == in_group == s.group_member(v)

    def test_even_case_index_two(self):
        s = build_semigroup([2], [3])
        assert s.group_form == EVEN
        assert s.rank == 3
        assert smith_normal_form([list(r) for r in oracle_group(s).basis]) == [1, 1, 2]

    def test_full_case(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert s.group_form == FULL
        assert oracle_group(s) == DenseLattice.from_generators(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3
        )

    def test_zero_case(self):
        s = build_semigroup([1], [2])
        assert s.group_form == ZERO
        assert s.rank == 0

    @pytest.mark.parametrize(
        "p",
        grid_params() + [SVParams.of([2], [40]), SVParams.of([1, 1], [20, 20])],
        ids=lambda p: f"{p.a}{p.b}".replace(" ", ""),
    )
    def test_closed_form_test_matches_the_hermite_lattice(self, p):
        s = build_semigroup_from_params(p)
        group = oracle_group(s)
        for v in box_points(p.n):
            assert s.group_member(v) == group.member(v), v

    @pytest.mark.parametrize("length_change", [-1, 1])
    def test_group_member_refuses_a_point_of_another_length(self, length_change):
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(ValueError, match="not n = 3"):
            s.group_member((0,) * (s.n + length_change))

    def test_closed_forms_match_generated_lattice_on_grid(self):
        for p in grid_params():
            generated = DenseLattice.from_generators(generator_vectors(p), p.n)
            assert generated == dense_group(p, closed_form_group(p)), p

    def test_certificate_rejects_a_lattice_missing_a_generator(self, monkeypatch):
        # (3),(3) spans Z^3; its generators of odd sum lie outside EVEN.
        even = closed_form_group(SVParams.of([2], [3]))
        assert closed_form_group(SVParams.of([3], [3])) == FULL
        monkeypatch.setattr(model, "closed_form_group", lambda p: even)
        with pytest.raises(RuntimeError):
            build_semigroup([3], [3])

    def test_certificate_rejects_a_stray_generator_of_high_degree(self, monkeypatch):
        # The generators of sum <= 3 still span EVEN, so only the check of
        # every generator against the group can see (2,2,1).  That check
        # asks the box of the generators' block sums, so the stray enters as
        # three more units atop every box, as if the degree were 5 in place
        # of 2: the box then holds the block sums (5,), odd where EVEN is
        # even.
        box_meets = model._box_meets
        widened = lambda low, high, *rest: box_meets(low, high + 3, *rest)
        monkeypatch.setattr(model, "_box_meets", widened)
        with pytest.raises(RuntimeError, match="does not match its closed form"):
            build_semigroup([2], [3])

    def test_certificate_rejects_a_strict_superlattice(self, monkeypatch):
        # Z^3 contains every generator of (2),(3), which span only EVEN.
        full = closed_form_group(SVParams.of([3], [3]))
        monkeypatch.setattr(model, "closed_form_group", lambda p: full)
        with pytest.raises(RuntimeError):
            build_semigroup([2], [3])


def check_basis_pivots(p):
    """The rank and pivot product the model reads off the closed form
    against the Hermite basis of every generator."""
    s = build_semigroup_from_params(p)
    hermite = hermite_sublattice(generator_vectors(p), p.n)
    pivots = [next(x for x in row if x) for row in hermite.basis]
    assert s.basis_pivots == (hermite.rank, math.prod(pivots)), p
    assert s.rank == hermite.rank


class TestClosedFormGroup:
    """The model keeps the group as its closed form alone: no dense basis
    and no dense facet sum is held."""

    @pytest.mark.parametrize("p", grid_params(), ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_rank_and_pivot_product_on_the_grid(self, p):
        check_basis_pivots(p)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)), min_size=1, max_size=4)
        .filter(lambda pairs: sum(bi for _, bi in pairs) <= 12)
        .filter(lambda pairs: math.prod(math.comb(ai + bi, bi) for ai, bi in pairs) <= 3000)
        .map(lambda pairs: SVParams.of(*zip(*pairs)))
    )
    @example(SVParams.of([2], [12]))
    @example(SVParams.of([1, 1], [6, 6]))
    @settings(max_examples=60, deadline=None)
    def test_rank_and_pivot_product_on_small_shapes(self, p):
        check_basis_pivots(p)

    def test_the_model_holds_no_dense_table(self):
        # The dense basis and facet sums of (2),(3200) held 157 MiB; the
        # per-facet data now has one entry per block.
        tracemalloc.start()
        try:
            s = build_semigroup([2], [3200])
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * 2**20
        assert {len(v) for v in s.facet_block_values.values()} == {1}
        assert len(s.facet_sum(s.facets[0])) == s.n == 3200


class TestFacets:
    def test_mixed_degrees_singleton_blocks(self):
        s = build_semigroup([1, 2], [1, 1])
        assert s.facets == (FacetId("coord", 1, 1), FacetId("balance", 1))

    def test_mixed_degrees_larger_block(self):
        s = build_semigroup([1, 2], [1, 2])
        assert s.facets == (
            FacetId("coord", 1, 1),
            FacetId("coord", 2, 1),
            FacetId("coord", 2, 2),
            FacetId("balance", 1),
        )

    def test_two_by_two(self):
        s = build_semigroup([2, 2], [1, 1])
        assert s.facets == (FacetId("coord", 1, 1), FacetId("coord", 2, 1))

    def test_single_block_dimension_one(self):
        s = build_semigroup([3], [1])
        assert s.facets == (FacetId("coord", 1, 1),)

    def test_veronese_squares(self):
        s = build_semigroup([2], [2])
        assert s.facets == (FacetId("coord", 1, 1), FacetId("coord", 1, 2))
        s = build_semigroup([2], [3])
        assert len(s.facets) == 3

    def test_triple_ones_balance_facets_only(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert s.facets == (
            FacetId("balance", 1),
            FacetId("balance", 2),
            FacetId("balance", 3),
        )

    def test_degenerate_segre_point(self):
        # One-dimensional cone: the origin is its unique facet, reported once.
        s = build_semigroup([1, 1], [1, 1])
        assert len(s.facets) == 1

    def test_zero_cone_has_no_facets(self):
        s = build_semigroup([1], [3])
        assert (generator_vectors(s.params), s.facets, s.ray_masks) == ((), (), ())
        assert primitive_pair_rays(s) == ()

    @pytest.mark.parametrize(
        "a,b", [([2], [1]), ([3], [1]), ([1, 1], [1, 1]), ([5], [1])]
    )
    def test_rank_one_cone_keeps_its_empty_origin_facet(self, a, b):
        # Every generator misses the origin facet: each incidence mask is
        # zero, and that lone mask is maximal, so the one ray is kept.
        s = build_semigroup(a, b)
        assert s.rank == 1
        assert s.facets == (FacetId("coord", 1, 1),)
        assert facet_generators(s, s.facets[0]) == ()
        assert set(incidence_masks(s.params, s.facets)) == {0}
        assert s.ray_masks == (0,)
        assert len(primitive_pair_rays(s)) == 1

    def test_incidence_table_matches_facet_value_scan(self):
        for p in grid_params():
            s = build_semigroup(p.a, p.b)
            for f in s.facets:
                scan = tuple(g for g in generator_vectors(p) if facet_value(p, f, g) == 0)
                assert facet_generators(s, f) == scan, (p, f)

    def test_generators_satisfy_hrep(self):
        for p in grid_params(max_k=2):
            s = build_semigroup(p.a, p.b)
            for g in generator_vectors(p):
                assert cone_contains(s.params, g)
                for f in s.facets:
                    assert facet_value(s.params, f, g) >= 0


class TestFastPathsMatchReplacedRoutes:
    @pytest.mark.parametrize(
        "p", grid_params() + LADDER_TOPS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_generators_facets_and_ray_masks(self, p):
        s = build_semigroup_from_params(p)
        gens = generator_vectors(p)
        assert gens == product_filter_generators(p)
        generated = DenseLattice.from_generators(gens, p.n)
        assert oracle_group(s) == generated
        facets, incidence = hnf_facet_list(p, gens, generated)
        assert (s.facets, s.ray_masks) == (facets, tuple(maximal_masks(incidence)))

    @pytest.mark.parametrize(
        "p", grid_params() + BEYOND_GRID, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_mask_routes_match_rank_routes(self, p):
        # Maximal masks against the rank tests they replaced: facets, ray
        # masks and sums against `rank_reaches` at rank - 1 and against a
        # full HNF rank per face, and the rays against the rank of the
        # facet normals with the annihilator of the group.
        s = build_semigroup_from_params(p)
        gens, group = generator_vectors(p), oracle_group(s)
        facets, incidence, sums = rank_facet_list(p, gens, group)
        assert (s.facets, dense_facet_sums(s)) == (facets, sums)
        assert s.ray_masks == tuple(maximal_masks(incidence))
        assert (facets, incidence) == hnf_facet_list(p, gens, group)
        assert primitive_pair_rays(s) == rank_extreme_rays(s)


# The rungs of the beyond-grid tests of the facet data: up to 80 facets on
# (2),(80) and 12,075 generators on (1,1,1,3),(5,5,5,5).
RUNGS = BEYOND_GRID + [SVParams.of([2], [80])]
# Repeated block types, each type a run of interchangeable blocks.
TYPE_RUNGS = [
    SVParams.of([1, 1, 1, 2, 2, 3], [2, 2, 2, 1, 1, 3]),
    SVParams.of([2] * 4, [1] * 4),
    SVParams.of([1] * 4 + [2], [1] * 5),
    SVParams.of([1] * 5, [2] * 5),
    SVParams.of([1, 1], [1, 1]),
    SVParams.of([1, 1], [3, 3]),
]


class TestBuildShortcuts:
    """The model build's shortcuts against the routes they replaced: the
    ray masks from the generators of sum two, the group test once per
    block-sum tuple, the early-stopping span certificate and the facet sums
    in closed form."""

    @pytest.mark.parametrize(
        "p", grid_params() + RUNGS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_against_the_replaced_routes(self, p):
        s = build_semigroup_from_params(p)
        # The ray masks are the maximal masks of the whole incidence table.
        assert s.ray_masks == tuple(maximal_masks(incidence_masks(p, s.facets)))
        # The early-stopping certificate, and the Hermite basis of every
        # generator of sum <= 3, which it replaced.
        assert oracle_group(s).spanned_by(low_generators(p, block_sum_tuples(p)))
        assert hermite_span_certificate(s)
        assert dense_facet_sums(s) == counted_facet_sums(p, s.facets)

    @pytest.mark.parametrize(
        "p", grid_params() + RUNGS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_ray_masks_are_maximal_in_the_facet_value_scan(self, p):
        s = build_semigroup_from_params(p)
        gens = generator_vectors(p)
        scan = tuple(
            sum(1 << t for t, f in enumerate(s.facets) if facet_value(p, f, g) == 0)
            for g in gens
        )
        assert incidence_masks(p, s.facets) == scan
        assert s.ray_masks == tuple(maximal_masks(scan))
        # Each ray mask is the mask of the generator e_i + e_j kept with it.
        assert len(s.ray_pairs) == len(s.ray_masks)
        for mask, (i, j) in zip(s.ray_masks, s.ray_pairs):
            g = tuple((q == i) + (q == j) for q in range(p.n))
            assert g in gens
            assert mask == sum(1 << t for t, f in enumerate(s.facets) if facet_value(p, f, g) == 0)

    @pytest.mark.parametrize("p", grid_params(), ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_low_generators_are_every_generator_of_sum_at_most_three(self, p):
        # The certificate is exact only if every vector it inserts is a
        # generator, and complete only if none of sum <= 3 is left out.
        low = {g for g in generator_vectors(p) if sum(g) <= 3}
        assert set(low_generators(p, block_sum_tuples(p))) == low

    @pytest.mark.parametrize("p", grid_params(), ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_block_sum_group_test_matches_every_generator(self, p):
        # Under every closed form that fits the blocks, not only the
        # instance's own: the test of a block-sum tuple is the test of
        # each generator with those block sums.
        forms = [FULL, EVEN, ZERO] + ([BALANCED] if p.k >= 2 else [])
        by_sums = {}
        for g in generator_vectors(p):
            by_sums.setdefault(tuple(p.block_sum(g, i) for i in range(1, p.k + 1)), []).append(g)
        assert sorted(by_sums) == sorted(block_sum_tuples(p))
        for form in forms:
            for sums, gens in by_sums.items():
                assert {form.contains(p, g) for g in gens} == {form.contains_sums(sums)}

    def test_span_certificate_refuses_an_equal_rank_proper_sublattice(self):
        # The generators of (3),(3) of even total span the even lattice, of
        # rank 3 and index 2 in Z^3, the group of (3),(3).
        p = SVParams.of([3], [3])
        group = dense_group(p, closed_form_group(p))
        even = [g for g in generator_vectors(p) if sum(g) % 2 == 0]
        assert DenseLattice.from_generators(even, 3).rank == group.rank == 3
        assert not group.spanned_by(even)
        assert group.spanned_by(generator_vectors(p))

    @pytest.mark.parametrize(
        "p", grid_params() + RUNGS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_closed_form_basis_is_hermite(self, p):
        # Sublattice equality is equality of Hermite bases, so the written
        # out basis must be the one elimination gives.
        group = dense_group(p, closed_form_group(p))
        assert DenseLattice.from_generators(group.basis, p.n) == group


def spans_by_echelon(p, form, group, shapes):
    """The certificate the build ran before it decomposed each basis row:
    every block-sum tuple in the form's group, and the generators of sum at
    most three spanning `group` by the early-stopping echelon pass."""
    return all(map(form.contains_sums, shapes)) and group.spanned_by(low_generators(p, shapes))


def check_against_block_routes(s):
    """The build by block types and facet classes against the per-block
    routes it replaced: the facet list, block values, block sums,
    thresholds and g_F, the span certificate under every closed form that
    fits the blocks, the ray count and the S_F premise."""
    p = s.params
    assert s.facet_classes == facet_list(p)
    facets, block_values, thresholds = block_facet_list(p)
    assert s.facets == facets, p
    assert dict(s.facet_block_values) == dict(block_values), p
    assert dict(s.odd_thresholds) == dict(thresholds), p
    for c in s.facet_classes:
        for f in c.facets:
            assert c.sums == tuple(map(int.__mul__, c.values, block_free_counts(p, f))), (p, f)
            assert c.gcd == facet_gcd(s, f), (p, f)
    for form in [FULL, EVEN, ZERO] + ([BALANCED] if p.k >= 2 else []):
        assert model._spans_closed_form(p, form) == block_spans_closed_form(p, form), (p, form)
    assert s.ray_count == pair_ray_count(s), p
    assert facet_premise_holds(s), p
    assert build_profiles(s) is s.odd_thresholds


def check_block_class_build(p):
    """The model build by block classes against the routes it replaced."""
    shapes = block_sum_tuples(p)
    s = build_semigroup_from_params(p)
    check_against_block_routes(s)
    old_facets, old_sums, old_thresholds = position_facet_list(p, shapes)
    assert (s.facets, dense_facet_sums(s), dict(s.odd_thresholds)) == (
        old_facets, dict(old_sums), dict(old_thresholds)
    )
    # The certificate agrees with the echelon pass under every closed form
    # that fits the blocks, the instance's own and the wrong ones.
    for form in [FULL, EVEN, ZERO] + ([BALANCED] if p.k >= 2 else []):
        group = dense_group(p, form)
        assert model._spans_closed_form(p, form) == spans_by_echelon(
            p, form, group, shapes
        ), form
    # Each basis row of the instance's own form is a generator or the
    # difference of two, by the definition of a generator, once the block
    # sums of the decomposition are written out.
    for row in sparse_basis_rows(p, closed_form_group(p)):
        g, c = written_decomposition(p, row)
        assert _is_generator(p, g) and (not any(c) or _is_generator(p, c)), row
        assert tuple(map(int.__sub__, g, c)) == dense(p.n, row)
    # The rays are counted before they are listed, and listed lazily.
    assert "ray_masks" not in vars(s) and "ray_pairs" not in vars(s)
    eager = sum_two_masks(p, s.facets)
    assert s.ray_count == len(eager)
    assert (s.ray_masks, s.ray_pairs) == (tuple(eager), tuple(eager.values()))


class TestBlockClassBuild:
    """The facet list by (kind, block) classes, the group certificate by
    one decomposition per block class and the ray count, against the
    per-position facet list, the echelon span of the generators of sum at
    most three, and the listing of the sum-two masks."""

    @pytest.mark.parametrize(
        "p", grid_params() + RUNGS + TYPE_RUNGS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_against_the_replaced_routes(self, p):
        check_block_class_build(p)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)), min_size=1, max_size=4).map(
            lambda pairs: SVParams.of(*zip(*pairs))
        )
    )
    @example(SVParams.of([1, 1], [1, 1]))
    @example(SVParams.of([1, 1, 2], [2, 2, 1]))
    @settings(max_examples=150, deadline=None)
    def test_against_the_replaced_routes_on_small_shapes(self, p):
        check_block_class_build(p)

    def test_basis_rows_are_swaps_of_one_row_per_block_type(self):
        # The certificate decomposes one row per block type, the last row
        # and, where rows have a last entry, the first row of the last block:
        # every other row is the first row of its type's first block under
        # the swap of the two blocks and then of two positions inside its
        # block, or, in the last block of a form with a last entry, its
        # first row under a swap of two positions, which fixes the last
        # position.  The balanced
        # form is the group of k = 2 blocks only; with more, the containment
        # half refutes it before any row is decomposed.
        for p in grid_params() + RUNGS + TYPE_RUNGS:
            firsts = list(itertools.accumulate((m for *_, m in p.block_types), initial=1))
            type_first = {i: f for f, m in zip(firsts, firsts[1:]) for i in range(f, m)}
            for form in [FULL, EVEN, ZERO] + ([BALANCED] if p.k == 2 else []):
                rows = sparse_basis_rows(p, form)
                for q, row in enumerate(rows[: p.n - 1]):
                    block = p.block_of(q)
                    last_entry = form.parity is not None
                    source = p.k if block == p.k and last_entry else type_first[block]
                    start, first = p.block_starts[block - 1], p.block_starts[source - 1]
                    swap = {first + j: start + j for j in range(p.b[block - 1])}
                    swap.update({start + j: first + j for j in range(p.b[block - 1])})
                    swap = {x: {start: q, q: start}.get(y, y) for x, y in swap.items()}
                    if last_entry:
                        assert swap.get(p.n - 1, p.n - 1) == p.n - 1, (p, q)
                    else:
                        assert p.n - 1 not in row, (p, q)
                    assert row == {swap.get(x, x): e for x, e in rows[first].items()}, (p, q)

    @pytest.mark.parametrize(
        "p",
        [
            SVParams.of([1, 2, 3], [2, 1, 3]),
            SVParams.of([2], [4]),
            SVParams.of([1, 1], [2, 3]),
            SVParams.of([1, 1, 1, 2, 2, 3], [2, 2, 2, 1, 1, 3]),
            SVParams.of([2] * 4, [1] * 4),
            SVParams.of([1, 1], [3, 3]),
        ],
        ids=lambda p: f"{p.a}{p.b}".replace(" ", ""),
    )
    def test_certificate_decomposes_one_row_per_block_type_and_the_last(
        self, p, monkeypatch
    ):
        decomposed = []
        decomposition = model._decomposition

        def recording(params, positive, negative):
            decomposed.append((tuple(positive), tuple(negative)))
            return decomposition(params, positive, negative)

        monkeypatch.setattr(model, "_decomposition", recording)
        build_semigroup_from_params(p)
        rows = sparse_basis_rows(p, closed_form_group(p))
        blocks = itertools.accumulate((m for *_, m in p.block_types[:-1]), initial=0)
        firsts = {*(p.block_starts[i] for i in blocks), p.n - 1}
        if closed_form_group(p).parity is not None:
            firsts.add(p.block_starts[-2])
        firsts = sorted(firsts & set(range(len(rows))))
        # The build writes only the block sums of the rows it decomposes.
        named = [tuple(map(tuple, row_block_sums(p, rows[q]))) for q in firsts]
        assert sorted(decomposed) == sorted(named)
        assert len(decomposed) <= len(p.block_types) + 2

    def test_a_classify_that_reads_no_ray_lists_none(self, monkeypatch):
        # (1,2),(2,2) is neither normal nor Cohen-Macaulay: smoothness reads
        # the ray count, and the facet criterion stops before any pi_J.
        built = []

        def build(params):
            built.append(build_semigroup_from_params(params))
            return built[-1]

        classify_module = importlib.import_module("svtangent.classify")
        monkeypatch.setattr(classify_module, "build_semigroup_from_params", build)
        report = classify_module.classify(SVParams.of([1, 2], [2, 2]))
        assert (report.normal.status, report.cohen_macaulay.status) == ("no", "no")
        assert "ray_masks" not in vars(built[0]) and "ray_pairs" not in vars(built[0])


BLOCK_TYPES = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8)),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[:2],
).map(
    lambda types: SVParams.of(
        [a for a, _, m in types for _ in range(m)], [b for _, b, m in types for _ in range(m)]
    )
)


def typed_group_points(s, rng, count=12):
    """Group points with coordinates in [-2, 2], each block drawn afresh or
    copied from the block before it when the two share a type, so that
    classes of one type often meet equal block sums and minima."""
    p, points = s.params, []
    for _ in range(8 * count):
        blocks = []
        for i in range(p.k):
            same = i and (p.a[i], p.b[i]) == (p.a[i - 1], p.b[i - 1]) and rng.random() < 0.5
            blocks.append(blocks[-1] if same else [rng.randint(-2, 2) for _ in range(p.b[i])])
        x = tuple(itertools.chain.from_iterable(blocks))
        if s.group_member(x):
            points.append(x)
        if len(points) == count:
            break
    return points


class TestPerTypeBuild:
    """The model built once per block type, with multiplicities up to 8,
    against the per-block routes it replaced (`check_against_block_routes`),
    and the S_F re-check asked once per class against the per-facet one."""

    @given(BLOCK_TYPES, st.randoms(use_true_random=False))
    @example(SVParams.of([1] * 8, [1] * 8), random.Random(0))
    @example(SVParams.of([1] * 8 + [2], [1] * 9), random.Random(0))
    @example(SVParams.of([2] * 8 + [3] * 8, [1] * 8 + [2] * 8), random.Random(0))
    @example(SVParams.of([1, 1], [1, 1]), random.Random(0))
    @settings(max_examples=120, deadline=None)
    def test_against_the_per_block_routes(self, p, rng):
        s = build_semigroup_from_params(p)
        check_against_block_routes(s)
        for x in typed_group_points(s, rng):
            assert hoatrung._sf_scan(s, x, s.facet_classes) == class_sf_scan(s, x), (p, x)

    @pytest.mark.parametrize("p", TYPE_RUNGS, ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_class_types_are_kept_whole(self, p):
        # Every block of a type has the same classes, so the CM loop's orbit
        # states and pi_J's block states read one class per block; only the
        # lone facet of (1,1),(1,1) stands for two hyperplanes.
        s = build_semigroup_from_params(p)
        coord, balance = s.block_masks
        first = 0
        for *_, m in p.block_types:
            blocks = range(first, first + m)
            first += m
            shapes = {(coord[i].bit_count(), bool(balance[i])) for i in blocks}
            assert len(shapes) == 1 or len(s.facets) == 1, p


def odd_cone_sums(p, reach=2):
    """The block sums of the nonnegative cone points of odd total with each
    block sum at most a_i + reach."""
    for sums in itertools.product(*(range(ai + reach + 1) for ai in p.a)):
        total = sum(sums)
        if total % 2 and all(total >= 2 * sums[i - 1] for i in p.balance_blocks):
            yield sums


def check_box_route(p, points):
    """The box queries and closed forms of the model build, the membership
    engine and Stanley's gcds against the listed block sums of every
    generator (`block_sum_tuples`)."""
    shapes = block_sum_tuples(p)
    s = build_semigroup_from_params(p)
    facets, sums, thresholds = position_facet_list(p, shapes)
    assert (s.facets, dense_facet_sums(s), dict(s.odd_thresholds)) == (
        facets, dict(sums), dict(thresholds)
    ), p
    for f in s.facets:
        assert s.facet_class(f).gcd == listed_facet_gcd(s, f), (p, f)
    for form in [FULL, EVEN, ZERO] + ([BALANCED] if p.k >= 2 else []):
        # The containment half by the listed tuples' group test, beside the
        # decomposition half as the build runs it.
        holds = all(map(form.contains_sums, shapes))
        rows = sparse_basis_rows(p, form)
        firsts = {*p.block_starts[:-1], p.n - 1}
        spans = all(written_decomposition(p, rows[q]) is not None for q in firsts if q < len(rows))
        assert model._spans_closed_form(p, form) == (holds and spans), (p, form)
    for t in points:
        shape = s.membership._odd_shape(t)
        assert (shape is None) == (listed_odd_shape(s, t) is None), (p, t)
        if shape is not None:
            rest = list(map(int.__sub__, t, shape))
            assert shape in shapes and sum(shape) % 2 and min(rest) >= 0, (p, t, shape)
            assert all(sum(rest) >= 2 * rest[i - 1] for i in p.balance_blocks), (p, t, shape)


class TestBoxRoute:
    """The model lists no generator block sums: every question about them
    is a query on their box (`model._box_meets`) or a closed form, checked
    here against the listed tuples."""

    @pytest.mark.parametrize("p", grid_params(), ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_against_the_listed_tuples_on_the_grid(self, p):
        check_box_route(p, odd_cone_sums(p))

    @given(
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), min_size=1, max_size=8)
        .filter(lambda pairs: math.prod(ai + 1 for ai, _ in pairs) <= 10**4)
        .map(lambda pairs: SVParams.of(*zip(*pairs))),
        st.randoms(use_true_random=False),
    )
    @example(SVParams.of([1] * 8, [2] * 8), random.Random(0))
    @example(SVParams.of([1, 1, 1, 12], [1, 1, 1, 1]), random.Random(0))
    @example(SVParams.of([2], [1]), random.Random(0))
    @settings(max_examples=60, deadline=None)
    def test_against_the_listed_tuples(self, p, rng):
        points = [
            sums for sums in (tuple(rng.randint(0, ai + 2) for ai in p.a) for _ in range(200))
            if sum(sums) % 2 and all(sum(sums) >= 2 * sums[i - 1] for i in p.balance_blocks)
        ]
        check_box_route(p, points)

    def test_box_meets_is_the_listed_box(self):
        # Every box 0 <= lo <= hi <= a and every total window in [0, sum(a)
        # + 1], read off sum(lo) and sum(hi), against a scan of the listed
        # tuples.
        for p in grid_params(max_k=3, max_b=1):
            shapes = block_sum_tuples(p)
            corners = list(itertools.product(*(range(ai + 1) for ai in p.a)))
            for lo, hi in itertools.product(corners, repeat=2):
                if not all(map(int.__le__, lo, hi)):
                    continue
                for t_lo, t_hi in itertools.combinations_with_replacement(range(sum(p.a) + 2), 2):
                    listed = any(
                        all(map(int.__le__, lo, t)) and all(map(int.__le__, t, hi))
                        and t_lo <= sum(t) <= t_hi
                        for t in shapes
                    )
                    box = model._box_meets(sum(lo), sum(hi), t_lo, t_hi)
                    assert box == listed, (p, lo, hi, t_lo, t_hi)
        # The defaults: any total of 2 or more.
        assert model._box_meets(0, 2) and not model._box_meets(0, 1)

    def test_the_build_lists_no_tuple(self):
        # (1)^16,(2)^16 has 65,519 generator block sums; listing them
        # peaked at 37.8 MiB.  (1)^20,(2)^20 would list 1,048,555.
        tracemalloc.start()
        try:
            build_semigroup([1] * 16, [2] * 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        s = build_semigroup([1] * 20, [2] * 20)
        assert len(s.facets) == 60 and s.rank == 40


def pairwise_maximal(masks):
    """The maximal masks by the definition: distinct, no other mask strictly
    containing them, by decreasing bit count, then by increasing value."""
    distinct = set(masks)
    maximal = [m for m in distinct if not any(m != o and m & o == m for o in distinct)]
    return sorted(maximal, key=lambda m: (-bin(m).count("1"), m))


class TestMaximalMasks:
    @given(st.lists(st.integers(0, 63), max_size=12))
    @example([0b011, 0b1000, 0b111, 0b1000, 0b10000])  # [0b111, 0b1000, 0b10000]
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pairwise_definition(self, masks):
        assert maximal_masks(masks) == pairwise_maximal(masks)

    @given(st.lists(st.integers(0, 255), max_size=16), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_order_does_not_depend_on_the_input_order(self, masks, rng):
        shuffled = list(masks)
        rng.shuffle(shuffled)
        assert maximal_masks(shuffled) == maximal_masks(masks)
        assert maximal_masks(iter(shuffled)) == maximal_masks(masks)

    def test_zero_mask_is_maximal_only_alone(self):
        assert maximal_masks([]) == []
        assert maximal_masks([0, 0]) == [0]
        assert maximal_masks([0, 0b100]) == [0b100]


class TestOracle:
    def test_two_by_two_oracle(self):
        s = build_semigroup([2, 2], [1, 1])
        facets = facet_oracle(s)
        assert len(facets) == 2
        zero_sets = {f.zero_generators for f in facets}
        assert frozenset({(0, 2)}) in zero_sets
        assert frozenset({(2, 0)}) in zero_sets

    def test_veronese_oracle(self):
        s = build_semigroup([2], [2])
        facets = facet_oracle(s)
        assert len(facets) == 2

    def test_ray_cone_origin_facet(self):
        s = build_semigroup([3], [1])
        facets = facet_oracle(s)
        assert len(facets) == 1
        assert facets[0].zero_generators == frozenset()

    def test_dimension_cap(self):
        s = build_semigroup([1, 1, 1], [3, 3, 1])
        with pytest.raises(OracleUnavailable):
            facet_oracle(s)

    def test_oracle_bijects_with_derived_list_on_grid(self):
        for p in grid_params():
            if p.n > 6:
                continue
            s = build_semigroup(p.a, p.b)
            oracle = facet_oracle(s)
            derived = {frozenset(facet_generators(s, f)) for f in s.facets}
            geometric = {f.zero_generators for f in oracle}
            assert derived == geometric, p
            assert s.ray_masks == tuple(maximal_masks(incidence_masks(p, s.facets))), p


# Instances beyond the grid for the least multiple in the group: the even
# group at n = 40, the balanced group at n = 40, and two full groups.
GROUP_DIRECTION_TOPS = [
    SVParams.of(a, b)
    for a, b in [([2], [40]), ([1, 1], [20, 20]), ([1, 1, 1], [5, 5, 5]), ([1, 2], [1, 22])]
]


class TestPrimitiveInGroup:
    @pytest.mark.parametrize(
        "p", grid_params() + GROUP_DIRECTION_TOPS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_p_or_2p_matches_the_exponent_loop(self, p):
        # Every closed-form group has index 1 or 2 in its span, so trying p
        # and 2p gives the multiple the loop up to the group's exponent finds.
        s = build_semigroup_from_params(p)
        directions = {primitive(g) for g in generator_vectors(p)}
        want = exponent_primitives_in_group(s, directions)
        assert {d: primitive_in_group(s, d) for d in directions} == want

    def test_direction_outside_the_span_is_refused(self):
        # The balanced group of (1,1),(1,1) holds only equal block sums.
        s = build_semigroup([1, 1], [1, 1])
        with pytest.raises(RuntimeError, match="span of the group"):
            primitive_in_group(s, (1, 0))


WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text()
)

# The ladders of the sum-two listing beyond the grid, the rungs where it
# leaves out the most pairs: (2),(b) lists b of its b(b+1)/2 pairs.
SUM_TWO_LADDERS = (
    [SVParams.of([2], [b]) for b in range(1, 41)]
    + [SVParams.of([1, 1], [1, b]) for b in range(1, 31)]
    + [SVParams.of([1, 1], [b, b]) for b in range(1, 15)]
    + [SVParams.of([1, 2], [1, b]) for b in range(1, 21)]
    + [SVParams.of([2, 2], [b, c]) for b in range(1, 8) for c in range(b, 8)]
    + [SVParams.of([1] * k, [b] * k) for k in range(1, 7) for b in range(1, 4)]
)

# Every grid instance, every workload instance and the ladders, once each.
SUM_TWO_CASES = list(
    dict.fromkeys(
        grid_params()
        + [SVParams.of(i["a"], i["b"]) for items in WORKLOADS.values() for i in items]
        + SUM_TWO_LADDERS
    )
)


def small_shape(pairs):
    """The parameters of the longest prefix of (a_i, b_i) pairs whose sizes
    add up to at most 10; the first pair is always kept."""
    totals = itertools.accumulate(bi for _, bi in pairs)
    return SVParams.of(*zip(*(pair for pair, n in zip(pairs, totals) if n <= 10)))


class TestSumTwoListing:
    """The model lists only the generators of sum two that span rays, with
    no maximality filter, and the smoothness test reads the index of the
    rays' span off their pairs: against the maximal masks of every
    generator of sum two, the route the listing replaced, and one echelon
    pass over the least multiple in the group of each ray's primitive
    vector."""

    @pytest.mark.parametrize("p", SUM_TWO_CASES, ids=lambda p: f"{p.a}{p.b}".replace(" ", ""))
    def test_against_every_pair_and_the_primitive_in_group(self, p):
        s = build_semigroup_from_params(p)
        full = every_sum_two_mask(p, s.facets)
        masks = tuple(maximal_masks(full))
        assert s.ray_masks == masks
        assert s.ray_pairs == tuple(map(full.__getitem__, masks))
        # At any ray count, not only where it equals the rank.
        assert ray_span_index(s) == oracle_group(s).index_of(primitive_pair_rays(s))
        # The listed masks are pairwise incomparable, so the build needs no
        # maximality filter after them.
        listed = sum_two_masks(p, s.facets)
        for m, other in itertools.combinations(listed, 2):
            assert m & other not in (m, other), (p, m, other)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 10)), min_size=1, max_size=4).map(
            small_shape
        )
    )
    @example(SVParams.of([1, 2], [3, 1]))
    @example(SVParams.of([1, 1, 2], [2, 2, 1]))
    @example(SVParams.of([1, 1, 1], [1, 1, 4]))
    @example(SVParams.of([1, 1], [1, 3]))
    @settings(max_examples=300, deadline=None)
    def test_rays_match_the_maximal_masks_of_every_pair(self, p):
        # Small shapes (k <= 4, a_i <= 4, n <= 10), against the maximality
        # filter over every generator of sum two, the route the build left.
        # The examples have coordinate hyperplanes that are not facets.
        s = build_semigroup_from_params(p)
        full = every_sum_two_mask(p, s.facets)
        masks = tuple(maximal_masks(full))
        assert s.ray_masks == masks
        assert s.ray_pairs == tuple(map(full.__getitem__, masks))

    @pytest.mark.parametrize(
        "p",
        [SVParams.of([2], [6]), SVParams.of([1, 1], [3, 4]), SVParams.of([1, 2], [2, 3])],
        ids=lambda p: f"{p.a}{p.b}".replace(" ", ""),
    )
    def test_one_group_test_per_block(self, p, monkeypatch):
        # The index of the rays' span reads a ray e_q + e_r with q != r off
        # its pair with no group test; whether a ray of 2 e_q is e_q is asked
        # once per block, on the unit block sums, and never on a dense vector.
        s = build_semigroup_from_params(p)
        asked = []
        contains_sums = model.GroupForm.contains_sums

        def counted(self, sums):
            asked.append(tuple(sums))
            return contains_sums(self, sums)

        def refuse(self, v):
            raise AssertionError("group test on a dense vector")

        monkeypatch.setattr(model.GroupForm, "contains_sums", counted)
        monkeypatch.setattr(model.AffineSemigroup, "group_member", refuse)
        index = ray_span_index(s)
        k = p.k
        assert asked == [tuple(int(l == i) for l in range(k)) for i in range(k)]
        monkeypatch.undo()
        assert index == oracle_group(s).index_of(primitive_pair_rays(s))


class TestExtremeRays:
    def test_veronese_rays(self):
        s = build_semigroup([2], [2])
        assert set(primitive_pair_rays(s)) == {(2, 0), (0, 2)}

    def test_segre_rays(self):
        s = build_semigroup([1, 1], [1, 2])
        assert set(primitive_pair_rays(s)) == {(1, 1, 0), (1, 0, 1)}

    def test_quadrant_rays(self):
        s = build_semigroup([2, 2], [1, 1])
        assert set(primitive_pair_rays(s)) == {(1, 0), (0, 1)}

    def test_ray_count_triple_segre(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert set(primitive_pair_rays(s)) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
