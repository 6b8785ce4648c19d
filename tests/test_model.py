import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    OracleUnavailable,
    facet_oracle,
    hnf_facet_list,
    product_filter_generators,
    rank_extreme_rays,
    rank_facet_list,
)
from svtangent import model
from svtangent.lattice import Sublattice, smith_normal_form
from svtangent.model import (
    GROUP_BALANCED,
    GROUP_EVEN,
    GROUP_FULL,
    GROUP_ZERO,
    FacetId,
    SVParams,
    build_semigroup,
    build_semigroup_from_params,
    closed_form_group,
    enumerate_generators,
    extreme_rays,
    facet_value,
    maximal_masks,
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

    def test_indices_lexicographic(self):
        p = SVParams.of([1, 2], [2, 1])
        assert p.indices() == [(1, 1), (1, 2), (2, 1)]
        assert p.position(2, 1) == 2


class TestGenerators:
    def test_two_by_two_on_singleton_blocks(self):
        gens = enumerate_generators(SVParams.of([2, 2], [1, 1]))
        assert set(gens) == {(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)}

    def test_segre_point(self):
        assert enumerate_generators(SVParams.of([1, 1], [1, 1])) == ((1, 1),)

    def test_degree_one_single_block_is_empty(self):
        for b in range(1, 4):
            assert enumerate_generators(SVParams.of([1], [b])) == ()

    def test_graded_lex_order(self):
        gens = enumerate_generators(SVParams.of([2, 2], [1, 1]))
        keys = [(sum(g), g) for g in gens]
        assert keys == sorted(keys)

    def test_unit_tuples_for_all_degree_one(self):
        gens = enumerate_generators(SVParams.of([1, 1, 1], [1, 1, 1]))
        assert set(gens) == {(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


class TestGroup:
    def test_balanced_case(self):
        s = build_semigroup([1, 1], [2, 2])
        assert s.group_tag == GROUP_BALANCED
        assert s.rank == 3
        for v in itertools.product(range(-2, 3), repeat=4):
            in_group = (v[0] + v[1]) == (v[2] + v[3])
            assert s.group.member(v) == in_group == s.group_member(v)

    def test_even_case_index_two(self):
        s = build_semigroup([2], [3])
        assert s.group_tag == GROUP_EVEN
        assert s.rank == 3
        assert smith_normal_form([list(r) for r in s.group.basis]) == [1, 1, 2]

    def test_full_case(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert s.group_tag == GROUP_FULL
        assert s.group == Sublattice.from_generators(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3
        )

    def test_zero_case(self):
        s = build_semigroup([1], [2])
        assert s.group_tag == GROUP_ZERO
        assert s.rank == 0

    def test_closed_forms_match_generated_lattice_on_grid(self):
        for p in grid_params():
            gens = enumerate_generators(p)
            generated = Sublattice.from_generators(gens, p.n)
            tag, expected = closed_form_group(p)
            assert generated == expected, p

    def test_certificate_rejects_a_lattice_missing_a_generator(self, monkeypatch):
        # (3),(3) spans Z^3; its generators of odd sum lie outside EVEN.
        even = closed_form_group(SVParams.of([2], [3]))
        assert closed_form_group(SVParams.of([3], [3]))[0] == GROUP_FULL
        monkeypatch.setattr(model, "closed_form_group", lambda p: even)
        with pytest.raises(RuntimeError):
            build_semigroup([3], [3])

    def test_certificate_rejects_a_stray_generator_of_high_degree(self, monkeypatch):
        # The generators of sum <= 3 still span EVEN, so only the check of
        # every generator against the group can see (2,2,1).
        gens = enumerate_generators(SVParams.of([2], [3]))
        monkeypatch.setattr(model, "enumerate_generators", lambda p: gens + ((2, 2, 1),))
        with pytest.raises(RuntimeError):
            build_semigroup([2], [3])

    def test_certificate_rejects_a_strict_superlattice(self, monkeypatch):
        # Z^3 contains every generator of (2),(3), which span only EVEN.
        full = closed_form_group(SVParams.of([3], [3]))
        monkeypatch.setattr(model, "closed_form_group", lambda p: full)
        with pytest.raises(RuntimeError):
            build_semigroup([2], [3])


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
        assert (s.generators, s.facets, s.incidence) == ((), (), ())
        assert extreme_rays(s) == ()

    @pytest.mark.parametrize(
        "a,b", [([2], [1]), ([3], [1]), ([1, 1], [1, 1]), ([5], [1])]
    )
    def test_rank_one_cone_keeps_its_empty_origin_facet(self, a, b):
        # Every generator misses the origin facet: each incidence mask is
        # zero, and that lone mask is maximal, so the one ray is kept.
        s = build_semigroup(a, b)
        assert s.rank == 1
        assert s.facets == (FacetId("coord", 1, 1),)
        assert s.facet_generators(s.facets[0]) == ()
        assert set(s.incidence) == {0}
        assert len(extreme_rays(s)) == 1

    def test_incidence_table_matches_facet_value_scan(self):
        for p in grid_params():
            s = build_semigroup(p.a, p.b)
            for f in s.facets:
                scan = tuple(g for g in s.generators if facet_value(p, f, g) == 0)
                assert s.facet_generators(f) == scan, (p, f)

    def test_generators_satisfy_hrep(self):
        for p in grid_params(max_k=2):
            s = build_semigroup(p.a, p.b)
            for g in s.generators:
                assert s.cone.contains(g)
                for f in s.facets:
                    assert facet_value(s.params, f, g) >= 0


class TestFastPathsMatchReplacedRoutes:
    @pytest.mark.parametrize(
        "p", grid_params() + LADDER_TOPS, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_generators_facets_and_incidence(self, p):
        s = build_semigroup_from_params(p)
        assert s.generators == product_filter_generators(p)
        generated = Sublattice.from_generators(s.generators, p.n)
        assert s.group == generated
        assert (s.facets, s.incidence) == hnf_facet_list(p, s.generators, generated)

    @pytest.mark.parametrize(
        "p", grid_params() + BEYOND_GRID, ids=lambda p: f"{p.a}{p.b}".replace(" ", "")
    )
    def test_mask_routes_match_rank_routes(self, p):
        # Maximal masks against the rank tests they replaced: facets,
        # incidence and sums against `rank_reaches` at rank - 1 and against
        # a full HNF rank per face, and the rays against the rank of the
        # facet normals with the annihilator of the group.
        s = build_semigroup_from_params(p)
        derived = (s.facets, s.incidence, s.facet_sums)
        assert derived == rank_facet_list(p, s.generators, s.group)
        assert derived[:2] == hnf_facet_list(p, s.generators, s.group)
        assert extreme_rays(s) == rank_extreme_rays(s)


def pairwise_maximal(masks):
    """The maximal masks by the definition: distinct, no other mask strictly
    containing them, by decreasing bit count in first-seen order."""
    distinct = list(dict.fromkeys(masks))
    maximal = [m for m in distinct if not any(m != o and m & o == m for o in distinct)]
    return sorted(maximal, key=lambda m: -bin(m).count("1"))


class TestMaximalMasks:
    @given(st.lists(st.integers(0, 63), max_size=12))
    @example([0b011, 0b1000, 0b111, 0b1000, 0b10000])  # [0b111, 0b1000, 0b10000]
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pairwise_definition(self, masks):
        assert maximal_masks(masks) == pairwise_maximal(masks)

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
            derived = {frozenset(s.facet_generators(f)) for f in s.facets}
            geometric = {f.zero_generators for f in oracle}
            assert derived == geometric, p


class TestExtremeRays:
    def test_veronese_rays(self):
        s = build_semigroup([2], [2])
        assert set(extreme_rays(s)) == {(2, 0), (0, 2)}

    def test_segre_rays(self):
        s = build_semigroup([1, 1], [1, 2])
        assert set(extreme_rays(s)) == {(1, 1, 0), (1, 0, 1)}

    def test_quadrant_rays(self):
        s = build_semigroup([2, 2], [1, 1])
        assert set(extreme_rays(s)) == {(1, 0), (0, 1)}

    def test_ray_count_triple_segre(self):
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        assert set(extreme_rays(s)) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
