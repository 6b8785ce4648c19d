import dataclasses
import functools
import importlib
import itertools
import math
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    all_orbit_j_records,
    all_orbit_masks,
    any_scan_maximal_masks,
    box,
    build_pi_j,
    capped_complex,
    columnar_facet_list,
    columnar_odd_thresholds,
    coned,
    dense_facet_sums,
    every_j_record,
    facet_generators,
    generator_vectors,
    incidence_masks,
    integer_homology_ranks,
    is_sum_of_generators,
    line_scan_gorenstein,
    maximal_acyclicity,
    orbit_loop_verdict,
    per_facet_profiles,
    gf_extremal,
    per_facet_sums,
    plain_max_total,
    tuple_f2_ranks,
    tuple_closure,
    tuple_euler_reduced,
    vsub,
)
from svtangent.membership import SemigroupMembership, is_normal
from svtangent.classify import NO, YES, classify, expected_verdicts, normalized_grid
from svtangent.model import (
    FacetId,
    SVParams,
    build_semigroup,
    build_semigroup_from_params,
    facet_value,
    maximal_masks,
)
from svtangent import hoatrung, regions
from svtangent.simplicial import AbstractComplex
from svtangent.hoatrung import (
    GJResult,
    _gf_top_region,
    _gj_scan,
    _h_vector,
    _orbit_masks,
    _pi_acyclicity,
    _pi_shape,
    build_profiles,
    cm_verdict,
    gj_empty,
    gorenstein_witness,
    j_records,
    profile_member,
    s_prime_equals_s,
    sf_member,
)

F11 = FacetId("coord", 1, 1)
F12 = FacetId("coord", 1, 2)
F21 = FacetId("coord", 2, 1)
F22 = FacetId("coord", 2, 2)
B1 = FacetId("balance", 1)


def cut_maximal(masks, jmask):
    """pi_J's maximal faces as `cm_verdict` reads them: the nonzero masks
    cut down to J, maximal by inclusion."""
    return maximal_masks({m & jmask for m in masks if m & jmask})


def closure(masks):
    """The complex with these maximal masks, or None past the oracles' face
    cap (`capped_complex`)."""
    return capped_complex(masks)


def _gf_member(s, x) -> bool:
    return s.group_member(x) and not any(
        profile_member(s, f, x) for f in s.facets
    )


def box_signatures(s, radius):
    """Test-only box scan: every group point of [-radius, radius]^n, mapped
    to the set of facets whose localized set contains it.  A point lies in
    G_J exactly when its signature is the complement of J."""
    out = {}
    for v in itertools.product(range(-radius, radius + 1), repeat=s.n):
        if s.group_member(v):
            out[v] = frozenset(
                f for f in s.facets if profile_member(s, f, v)
            )
    return out


def facet_orbits(s):
    """Test-only brute force: the orbits of all proper nonempty facet masks
    under every permutation of the coordinates inside each block combined
    with every permutation of equal blocks, applied to the facet labels."""
    p = s.params
    index = {f: t for t, f in enumerate(s.facets)}
    classes = {}
    for i in range(1, p.k + 1):
        classes.setdefault((p.a[i - 1], p.b[i - 1]), []).append(i)
    blocks = [i for members in classes.values() for i in members]
    block_maps = [
        dict(zip(blocks, itertools.chain.from_iterable(images)))
        for images in itertools.product(
            *(itertools.permutations(members) for members in classes.values())
        )
    ]
    coord_maps = list(
        itertools.product(
            *(itertools.permutations(range(1, bi + 1)) for bi in p.b)
        )
    )

    def image(f, bmap, cmap):
        if f.kind == "coord":
            return FacetId("coord", bmap[f.i], cmap[f.i - 1][f.j - 1])
        return FacetId("balance", bmap[f.i])

    perms = [
        [index[image(f, bmap, cmap)] for f in s.facets]
        for bmap in block_maps
        for cmap in coord_maps
    ]
    nf = len(s.facets)
    seen, orbits = set(), []
    for mask in range(1, (1 << nf) - 1):
        if mask not in seen:
            orbit = {
                sum(1 << perm[t] for t in range(nf) if mask >> t & 1)
                for perm in perms
            }
            seen |= orbit
            orbits.append(orbit)
    return orbits


def jset(s, mask):
    return [f for t, f in enumerate(s.facets) if mask >> t & 1]


def record_mask(s, record):
    """The facet mask of a listed J, read off its labels."""
    return sum(1 << t for t, f in enumerate(s.facets) if f.label() in record["J"])


def verdict_listing(s, records):
    """The records of a listing by the oracle (`all_orbit_j_records`,
    `every_j_record`) on the orbits the verdict visits (`_orbit_masks`), in
    their order, as `j_records` lists them: a pi_J whose reduced Euler
    characteristic is nonzero, read off its built ranks (off its block
    states past the oracles' face cap), is not acyclic and is not built, so
    it has no ranks."""
    visited = set(_orbit_masks(s))
    out = []
    for r in records:
        jmask = record_mask(s, r)
        if jmask not in visited:
            continue
        ranks = r["homology_ranks"]
        if ranks is None:
            euler = _pi_shape(s, jmask)[1]
        else:
            euler = sum((-1) ** (q + 1) * rank for q, rank in enumerate(ranks))
        out.append({**r, "homology_ranks": None, "acyclic": False} if euler else r)
    return out


def full_walk(records):
    """The verdict of a J loop over every facet subset, read off the listing
    of every J (`every_j_record`): the first J with a non-acyclic pi_J and a
    nonempty G_J refutes; else the first J past the face cap with a nonempty
    G_J leaves the verdict undetermined; else every J passes."""
    nonempty = [r for r in records if r["gj_status"] == "nonempty"]
    for r in nonempty:
        if r["acyclic"] is False:
            return "not-cm", (
                f"J={r['J']} has a non-acyclic complex "
                f"and a nonempty region (witness {r['gj_points'][0]})"
            )
    for r in nonempty:
        if r["acyclic"] is None:
            return "undetermined", (
                f"complex too large for J={r['J']} and its region is nonempty"
            )
    return "cm", (
        "localized intersection equals the semigroup and every facet subset "
        "is empty-or-acyclic"
    )


class TestFaceGenerators:
    def test_mixed_degree_facet(self):
        s = build_semigroup([1, 2], [1, 2])
        gens = facet_generators(s, F11)
        assert all(g[0] == 0 for g in gens)
        assert set(gens) == {(0, 2, 0), (0, 1, 1), (0, 0, 2)}

    def test_balance_facet_of_segre_point(self):
        s = build_semigroup([1, 1], [1, 1])
        # The single facet of this ray is the origin; its generator list is
        # empty and the balance hyperplanes contain the whole cone.
        assert facet_generators(s, s.facets[0]) == ()

    def test_balance_facet_mixed(self):
        s = build_semigroup([1, 2], [1, 1])
        assert facet_generators(s, B1) == ((1, 1),)

    def test_coordinate_facet_two_by_two(self):
        s = build_semigroup([2, 2], [1, 1])
        assert facet_generators(s, F21) == ((2, 0),)


class TestSfMember:
    def test_two_by_two_nonmember(self):
        s = build_semigroup([2, 2], [1, 1])
        r = sf_member(s, F11, (0, 1))
        assert not r.is_member

    def test_two_by_two_member(self):
        s = build_semigroup([2, 2], [1, 1])
        r = sf_member(s, F11, (1, -2))
        assert r.is_member
        assert s.membership.member(tuple(a + b for a, b in zip((1, -2), r.witness)))

    def test_unit_vector_member_on_coordinate_facet(self):
        s = build_semigroup([2, 2], [1, 2])
        r = sf_member(s, F11, (1, 0, 0))
        assert r.is_member

    def test_domain_error_outside_group(self):
        s = build_semigroup([2], [2])
        with pytest.raises(ValueError):
            sf_member(s, F11, (1, 0))

    def test_witness_lies_on_facet(self):
        s = build_semigroup([1, 2], [1, 2])
        r = sf_member(s, F11, (-1, 1, 2))
        if r.is_member:
            assert r.witness[0] == 0

    @pytest.mark.parametrize("length_change", [-1, 1])
    def test_a_point_of_another_length_is_refused(self, length_change):
        # On (1,2),(1,2), n = 3: (1, 1, 1, 99, 5) was a member of S_F11, and
        # profile_member took (0, 0, 1, 7).
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(ValueError, match="not n = 3"):
            sf_member(s, F11, (1, 1, 1, 99, 5)[: s.n + length_change])
        with pytest.raises(ValueError, match="not n = 3"):
            profile_member(s, F11, (0, 0, 1, 7)[: s.n + length_change])

    def test_sf_member_refuses_an_unknown_facet(self):
        # (1,2),(1,2) has one balance facet, F_{1}; its y0 lookup raised
        # KeyError.
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(ValueError, match=r"unknown facet F_\{2\}"):
            sf_member(s, FacetId("balance", 2), (0, 0, 1))

    @pytest.mark.parametrize("x", [(0, 0, 1), (0, 1, 1)])
    def test_profile_member_refuses_an_unknown_facet(self, x):
        # n = 3 has no coordinate (3, 1); its threshold lookup raised
        # KeyError.  At even total the threshold is 0 with no lookup.
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(ValueError, match=r"unknown facet F_\{3,1\}"):
            profile_member(s, FacetId("coord", 3, 1), x)


class TestProfilesMatchTheLiteralRoute:
    @pytest.mark.parametrize(
        "a,b",
        [
            ([2, 2], [1, 1]),
            ([1, 2], [1, 1]),
            ([1, 2], [1, 2]),
            ([2], [2]),
            ([2], [3]),
            ([3], [1]),
            ([3], [2]),
            ([1, 1], [1, 2]),
            ([1, 1], [2, 2]),
            ([1, 1, 1], [1, 1, 1]),
            ([2, 3], [1, 1]),
        ],
    )
    def test_closed_form_equals_ray_search(self, a, b):
        s = build_semigroup(a, b)
        radius = 4
        for f in s.facets:
            for v in itertools.product(range(-radius, radius + 1), repeat=s.n):
                if not s.group_member(v):
                    continue
                closed = profile_member(s, f, v)
                searched = sf_member(s, f, v).is_member
                assert closed == searched, (f.label(), v)

    def test_reference_set_descriptions(self):
        # Worked case with blocks of degree (2, 2) on singleton factors: the
        # localized set of the first coordinate facet is the open halfplane
        # x11 > 0 together with the even points of the axis x11 = 0.
        s = build_semigroup([2, 2], [1, 1])
        for v in itertools.product(range(-5, 6), repeat=2):
            expected = v[0] > 0 or (v[0] == 0 and v[1] % 2 == 0)
            assert profile_member(s, F11, v) == expected
            expected21 = v[1] > 0 or (v[1] == 0 and v[0] % 2 == 0)
            assert profile_member(s, F21, v) == expected21

    def test_mixed_degree_set_descriptions(self):
        # Degrees (1, 2) on singleton factors: S_{F11} as above and the
        # balance set is the halfplane x11 <= x21.
        s = build_semigroup([1, 2], [1, 1])
        for v in itertools.product(range(-5, 6), repeat=2):
            assert profile_member(s, F11, v) == (
                v[0] > 0 or (v[0] == 0 and v[1] % 2 == 0)
            )
            assert profile_member(s, B1, v) == (v[0] <= v[1])

    def test_mixed_degree_triple_descriptions(self):
        # Degrees (1, 2) with b = (1, 2): the two coordinate facets of the
        # second block localize to the halfspaces x2j >= 0.
        s = build_semigroup([1, 2], [1, 2])
        for v in itertools.product(range(-4, 5), repeat=3):
            assert profile_member(s, F21, v) == (v[1] >= 0)
            assert profile_member(s, F22, v) == (v[2] >= 0)
            assert profile_member(s, B1, v) == (v[0] <= v[1] + v[2])

    def test_even_lattice_descriptions(self):
        # Single block of degree two: inside the even lattice the localized
        # sets are plain halfspaces.
        s = build_semigroup([2], [2])
        for v in itertools.product(range(-5, 6), repeat=2):
            if sum(v) % 2:
                continue
            assert profile_member(s, F11, v) == (v[0] >= 0)
            assert profile_member(s, F12, v) == (v[1] >= 0)

    def test_upward_closed_under_semigroup(self):
        s = build_semigroup([1, 2], [1, 2])
        members = [
            v for v in itertools.product(range(3), repeat=3) if s.membership.member(v)
        ]
        for f in s.facets:
            for v in itertools.product(range(-3, 4), repeat=3):
                if not profile_member(s, f, v):
                    continue
                for g in members[:6]:
                    w = tuple(x + y for x, y in zip(v, g))
                    assert profile_member(s, f, w)

    def test_semigroup_contained_in_every_localized_set(self):
        s = build_semigroup([2, 2], [1, 1])
        for v in itertools.product(range(7), repeat=2):
            if s.membership.member(v):
                for f in s.facets:
                    assert profile_member(s, f, v)


LADDER_TOPS = [([1, 2], [1, 14]), ([1, 1], [10, 10]), ([2], [40])]

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"

# Rungs and edge instances beyond the grid, up to 80 facets on (2),(80)
# and 12,075 generators on (1,1,1,3),(5,5,5,5).
BEYOND_GRID = [
    ([2], [80]),
    ([1, 1], [20, 20]),
    ([1, 2], [1, 22]),
    ([1, 1, 1], [8, 8, 8]),
    ([1] * 6, [3] * 6),
    ([1, 1, 1, 3], [5, 5, 5, 5]),
]

# Rank-one cones, whose origin facet holds no generator, and the zero
# semigroups, which have no facet.
DEGENERATE = (
    [([a], [1]) for a in range(2, 31)]
    + [([1, 1], [1, 1])]
    + [([1], [b]) for b in range(1, 6)]
)


class TestColumnarFacetData:
    """The facets, ray masks, facet sums and S_F thresholds the model reads
    off block sums and the generators of sum two, against the routes they
    replaced: one transposition of the generators into coordinate columns,
    and one facet at a time."""

    @staticmethod
    def assert_matches_replaced_routes(s):
        p = s.params
        gens = generator_vectors(p)
        facets, incidence, sums = columnar_facet_list(p, gens)
        assert (s.facets, dense_facet_sums(s)) == (facets, sums), p
        assert s.ray_masks == tuple(maximal_masks(incidence)), p
        assert s.odd_thresholds == columnar_odd_thresholds(p, gens, s.facets), p
        assert list(s.facet_block_values) == list(s.odd_thresholds) == list(s.facets)
        # The model's own read-only thresholds, marked checked on the
        # semigroup's membership engine and returned by every call.
        profiles = build_profiles(s)
        assert build_profiles(s) is profiles is s.membership.profiles is s.odd_thresholds
        assert dense_facet_sums(s) == per_facet_sums(s), p
        assert profiles == per_facet_profiles(s), p
        with pytest.raises(TypeError):
            profiles[F11] = 0

    def test_grid(self):
        grid = normalized_grid(3, 3, 3)
        assert len(grid) == 219
        for p in grid:
            self.assert_matches_replaced_routes(build_semigroup(p.a, p.b))

    def test_bench_workloads(self):
        instances = [i for items in json.loads(WORKLOADS.read_text()).values() for i in items]
        assert len(instances) == 231
        for i in instances:
            self.assert_matches_replaced_routes(build_semigroup(i["a"], i["b"]))

    @pytest.mark.parametrize("a,b", LADDER_TOPS)
    def test_ladder_tops(self, a, b):
        self.assert_matches_replaced_routes(build_semigroup(a, b))

    @pytest.mark.parametrize("a,b", BEYOND_GRID, ids=str)
    def test_beyond_grid(self, a, b):
        self.assert_matches_replaced_routes(build_semigroup(a, b))

    @pytest.mark.parametrize("a,b", DEGENERATE, ids=str)
    def test_rank_one_and_zero(self, a, b):
        self.assert_matches_replaced_routes(build_semigroup(a, b))

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_small(self, pairs):
        a, b = [ai for ai, _ in pairs], [bi for _, bi in pairs]
        sizes = [math.comb(ai + bi, bi) for ai, bi in pairs]
        assume(math.prod(sizes) <= 3000)
        self.assert_matches_replaced_routes(build_semigroup(a, b))

    def test_facet_data_is_read_only(self):
        # Assigning into either mapping would change the y0 of `sf_member`
        # or the thresholds of `build_profiles` behind the verdicts.
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(TypeError):
            s.facet_block_values[F21] = (0, 0)
        with pytest.raises(TypeError):
            s.odd_thresholds[F21] = 0

    def test_extra_vanishing_coordinate_is_refused(self):
        # The closed form needs each facet sum to vanish exactly on the
        # facet's own coordinate (nowhere for a balance facet), so every
        # block with a free coordinate must have a positive value.  The
        # premise reads one class per class type, so a zero in any class
        # table entry of its own type is refused.
        s = build_semigroup([1, 2], [1, 2])
        v1, v2 = s.facet_block_values[F21]
        assert s.facet_sum(F21) == (v1, 0, v2) and v2 > 0
        for f, values in [(F21, (v1, 0)), (B1, (0, s.facet_block_values[B1][1]))]:
            c = s.facet_class(f)
            classes = tuple(
                d._replace(values=values) if d is c else d for d in s.facet_classes
            )
            with pytest.raises(RuntimeError, match="unexpected vanishing coordinates"):
                build_profiles(dataclasses.replace(s, facet_classes=classes))


RANK_ONE = [
    pytest.param(a, b, id=f"{a}-{b}")
    for a, b in [([a], [1]) for a in range(2, 31)] + [([1, 1], [1, 1])]
]


class TestRankOne:
    """The origin facet of a rank-one cone carries no generator, so S_F = S,
    and the closed form and the region engine decide it like any facet."""

    @pytest.mark.parametrize("a,b", RANK_ONE)
    def test_closed_form_is_the_semigroup(self, a, b):
        s = build_semigroup(a, b)
        (f,) = s.facets
        assert not any(s.facet_block_values[f])
        radius = 2 * (max(a) + 2)
        for v in itertools.product(range(-radius, radius + 1), repeat=s.n):
            if s.group_member(v):
                assert profile_member(s, f, v) == s.membership.member(v), v

    @pytest.mark.parametrize("a,b", [([2], [1]), ([3], [1]), ([7], [1]), ([1, 1], [1, 1])])
    def test_origin_facet_regions_hold_exactly_the_members(self, a, b):
        s = build_semigroup(a, b)
        (f,) = s.facets
        radius = 9
        points = [
            v
            for v in itertools.product(range(-radius, radius + 1), repeat=s.n)
            if s.group_member(v)
        ]
        members = {v for v in points if s.membership.member(v)}
        for inside, outside, want in (([f], [], members), ([], [f], set(points) - members)):
            got = set()
            for region in map(box(radius), hoatrung.difference_regions(s, inside, outside)):
                got.update(region.enumerate_points(len(points) + 1))
            assert got == want, (inside, outside)

    @pytest.mark.parametrize("a,b", RANK_ONE)
    def test_gorenstein_matches_the_line_scan(self, a, b):
        s = build_semigroup(a, b)
        got, want = gorenstein_witness(s), line_scan_gorenstein(s)
        assert (got.status, got.x0) == (want.status, want.x0)
        assert got.x0 == ((-2,) if a == [2] else (-1, -1) if a == [1, 1] else (1,))


class TestSPrime:
    def test_fails_with_unit_witness(self):
        s = build_semigroup([2, 2], [1, 2])
        r = s_prime_equals_s(s)
        assert not r.holds
        assert r.witness in ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_holds_for_two_by_two(self):
        s = build_semigroup([2, 2], [1, 1])
        assert s_prime_equals_s(s).holds

    def test_degree_three_fails_off_the_line(self):
        s = build_semigroup([3], [2])
        r = s_prime_equals_s(s)
        assert not r.holds
        assert sum(r.witness) == 1

    def test_degree_three_on_the_line_holds(self):
        s = build_semigroup([3], [1])
        assert s_prime_equals_s(s).holds


class TestPiJ:
    def test_pair_full_simplex(self):
        s = build_semigroup([1, 2], [1, 2])
        c = build_pi_j(s, [F11, F21])
        assert frozenset({F11, F21}) in {frozenset(f) for f in c.faces}
        assert c.is_acyclic()

    def test_pair_two_points(self):
        s = build_semigroup([1, 2], [1, 2])
        for pair in ([F11, B1], [F21, F22]):
            c = build_pi_j(s, pair)
            faces = {frozenset(f) for f in c.faces}
            assert frozenset(pair) not in faces
            assert not c.is_acyclic()

    def test_monotone_in_j(self):
        s = build_semigroup([1, 2], [1, 2])
        small = build_pi_j(s, [F11, F21])
        large = build_pi_j(s, [F11, F21, F22])
        assert small.faces <= large.faces

    @pytest.mark.parametrize(
        "a,b", [([1, 2], [1, 2]), ([1, 1, 1], [1, 2, 2]), ([2], [3]), ([1, 1], [2, 2])]
    )
    def test_incidence_table_matches_facet_values(self, a, b):
        s = build_semigroup(a, b)
        for mask in range(1, 1 << len(s.facets)):
            j = jset(s, mask)
            faces = [
                tuple(f for f in j if facet_value(s.params, f, g) == 0)
                for g in generator_vectors(s.params)
            ]
            expected = AbstractComplex.from_faces([face for face in faces if face])
            assert build_pi_j(s, j).faces == expected.faces, (a, b, mask)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1, 1, 1], [3, 3, 3]),
            ([1, 1, 1, 1], [1, 2, 2, 2]),
            ([1, 1, 1, 1], [2, 2, 2, 2]),
            ([1, 2, 3], [2, 2, 2]),  # 173 masks, 53 distinct
        ],
    )
    def test_maximal_masks_from_ray_masks(self, a, b):
        # cm_verdict cuts the ray masks; the maximal masks, and their order,
        # are those of the whole table and of the `any` scan the
        # containment loop replaced.
        s = build_semigroup(a, b)
        table = incidence_masks(s.params, s.facets)
        for jmask in range(1, (1 << len(s.facets)) - 1):
            maximal = cut_maximal(s.ray_masks, jmask)
            assert maximal == cut_maximal(table, jmask)
            assert maximal == any_scan_maximal_masks(table, jmask)

    @pytest.mark.parametrize(
        "a,b", [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [1, 2, 2, 2])]
    )
    def test_acyclicity_tiers_match_rational_homology(self, a, b):
        # Every orbit the CM loop reaches: the cone and Euler tiers read off
        # the block states (`_pi_acyclicity`), and the F2-first tier on the
        # built complex, give the answer of exact homology over Q alone, as
        # the tiers on the maximal masks do.
        s = build_semigroup(a, b)
        homology_decided = 0
        for jmask in _orbit_masks(s):
            maximal = cut_maximal(s.ray_masks, jmask)
            complex_ = AbstractComplex.from_faces(mask_faces(maximal))
            expected = not any(integer_homology_ranks(complex_.faces)[1:])
            acyclic, ranks = _pi_acyclicity(s, jmask)
            assert acyclic is expected, maximal
            assert ranks in (None, integer_homology_ranks(complex_.faces)), maximal
            assert maximal_acyclicity(maximal) is expected, maximal
            homology_decided += (
                not coned(maximal) and complex_.euler_characteristic_reduced() == 0
            )
        assert homology_decided > 0


def mask_faces(masks):
    return [tuple(t for t in range(m.bit_length()) if m >> t & 1) for m in masks]


# The 6-vertex real projective plane on the vertices 0..5.
RP2_MASKS = [
    sum(1 << (int(v) - 1) for v in face)
    for face in "123 134 145 156 162 235 346 452 563 624".split()
]


class TestClosure:
    """The downward closure over int masks against `from_faces`, and the
    acyclicity it decides."""

    @given(st.lists(st.integers(1, 255), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_from_faces(self, masks):
        expected = AbstractComplex.from_faces(mask_faces(masks))
        complex_ = closure(masks)
        assert complex_ == expected
        assert complex_.is_acyclic() == expected.is_acyclic()
        acyclic = not any(integer_homology_ranks(expected.faces)[1:])
        assert maximal_acyclicity(masks) is acyclic

    @pytest.mark.parametrize(
        "masks,ranks",
        [
            ([], []),
            ([0b1], [0, 0]),
            ([0b0111, 0b1011, 0b1101, 0b1110], [0, 0, 0, 1]),
            (RP2_MASKS, [0, 0, 0, 0]),
        ],
        ids=["empty family", "one vertex", "3-simplex boundary", "RP^2"],
    )
    def test_named_complexes(self, masks, ranks):
        expected = AbstractComplex.from_faces(mask_faces(masks))
        complex_ = closure(masks)
        assert complex_ == expected
        assert complex_.reduced_homology_ranks() == ranks
        assert maximal_acyclicity(masks) is not any(ranks[1:])

    @pytest.mark.parametrize("a,b", [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [2, 2, 2, 2])])
    def test_built_complexes_decide(self, a, b):
        # Each of these has orbits whose pi_J is neither a cone nor settled
        # by its Euler characteristic, so their state complexes are built.
        s = build_semigroup(a, b)
        assert any(_pi_acyclicity(s, jmask)[1] is not None for jmask in _orbit_masks(s))
        assert cm_verdict(s).status == "cm"

    def test_full_evidence_reads_block_states(self):
        # Every record answers: acyclic when coned off, not acyclic with no
        # ranks when its Euler characteristic is nonzero, and otherwise by
        # the ranks of its state complex, as the built pi_J answers.
        s = build_semigroup([1, 1, 1], [2, 2, 2])
        records, stopped = j_records(s)
        assert stopped is None and len(records) == len(_orbit_masks(s))
        settled = 0
        for record in records:
            jmask = record_mask(s, record)
            maximal = cut_maximal(s.ray_masks, jmask)
            assert record["acyclic"] is maximal_acyclicity(maximal)
            if _pi_shape(s, jmask)[1]:
                assert record["homology_ranks"] is None
                settled += 1
            else:
                assert record["homology_ranks"] == closure(maximal).reduced_homology_ranks()
        assert 0 < settled < len(records)

    def test_full_evidence_builds_each_complex_once(self, monkeypatch):
        # A record builds one state complex, where its block states leave
        # pi_J open, as the verdict does, and never pi_J itself.  A coned
        # one builds nothing and has zero ranks, and one with a nonzero
        # Euler characteristic builds nothing and has no ranks.
        s = build_semigroup([1, 1, 1], [2, 2, 2])
        build, builds = AbstractComplex.from_maximal_masks, []

        def counted(maximal):
            builds.append(maximal)
            return build(maximal)

        monkeypatch.setattr(AbstractComplex, "from_maximal_masks", staticmethod(counted))
        masks = _orbit_masks(s)
        records = [hoatrung.j_record(s, jmask) for jmask in masks]
        maximals = [cut_maximal(s.ray_masks, jmask) for jmask in masks]
        shapes = [_pi_shape(s, jmask) for jmask in masks]
        assert len(builds) == sum(not c and not euler for c, euler in shapes)
        assert 0 < len(builds) < len(records)
        # The state complex has one vertex per block and per balance facet.
        assert all(m < 1 << 2 * s.params.k for maximal in builds for m in maximal)
        assert any(r["homology_ranks"] is None and r["acyclic"] is False for r in records)
        for r, maximal, (coned_, euler) in zip(records, maximals, shapes):
            if coned_:
                top = max(map(int.bit_count, maximal), default=-1)
                assert r["homology_ranks"] == [0] * (top + 1)
            elif euler:
                assert r["homology_ranks"] is None and r["acyclic"] is False

    def test_coned_records_read_the_ranks_the_build_gives(self):
        # Under the cap the zero ranks of a coned record are those of its
        # built complex, on every orbit of the grid and of CM3 up to b = 14.
        params = normalized_grid(3, 3, 3) + [SVParams.of([1, 2], [1, b]) for b in range(1, 15)]
        checked = 0
        for p in params:
            s = build_semigroup_from_params(p)
            for jmask in all_orbit_masks(s):
                maximal = cut_maximal(s.ray_masks, jmask)
                if not coned(maximal):
                    continue
                built = closure(maximal)
                assert built is not None, (p, jmask)
                ranks = hoatrung.j_record(s, jmask)["homology_ranks"]
                assert ranks == built.reduced_homology_ranks(), (p, jmask)
                checked += 1
        assert checked > 7000

    @pytest.mark.parametrize(
        "a,b", [([1, 2], [1, 2]), ([1, 1, 1], [1, 2, 2]), ([2], [3]), ([1, 1], [2, 2])]
    )
    def test_mask_route_matches_facet_complex(self, a, b):
        # Vertex t of the mask route is the facet t of the facet order.
        s = build_semigroup(a, b)
        for mask in range(1, 1 << len(s.facets)):
            complex_ = closure(cut_maximal(s.ray_masks, mask))
            relabeled = {frozenset(s.facets[t] for t in face) for face in complex_.faces}
            expected = build_pi_j(s, jset(s, mask))
            assert relabeled == {frozenset(face) for face in expected.faces}, (a, b, mask)


class TestMaskRoute:
    """The complex on int-mask levels against the vertex-tuple route it
    replaced: faces, reduced Euler characteristic, the ranks over F2 and
    the ranks over Q from the signed boundary rows."""

    # Exact ranks over Q of the largest orbit complexes (up to 15,300 faces
    # on (1,1,1),(4,4,4)) take minutes; above this size only the faces, the
    # Euler characteristic and the ranks over F2 are compared.
    RATIONAL_FACES = 300

    def check(self, maximal, rational_faces=math.inf):
        complex_ = AbstractComplex.from_maximal_masks(maximal)
        faces = tuple_closure(maximal)
        assert set(complex_.faces) == faces, maximal
        assert len(complex_.faces) == len(faces)
        assert complex_.euler_characteristic_reduced() == tuple_euler_reduced(faces)
        assert complex_._f2_ranks() == tuple_f2_ranks(faces), maximal
        if len(faces) <= rational_faces:
            assert complex_._rational_ranks() == integer_homology_ranks(faces), maximal

    @pytest.mark.parametrize(
        "a,b",
        [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [2, 2, 2, 2]), ([1, 1, 1], [4, 4, 4])],
    )
    def test_every_orbit_family(self, a, b):
        s = build_semigroup(a, b)
        families = {tuple(cut_maximal(s.ray_masks, jmask)) for jmask in all_orbit_masks(s)}
        for maximal in families:
            self.check(maximal, self.RATIONAL_FACES)

    @given(st.lists(st.integers(0, 255), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_random_families(self, masks):
        self.check(masks)

    @pytest.mark.parametrize(
        "masks,ranks",
        [
            ([], []),
            ([0], [1]),
            ([0b1], [0, 0]),
            ([0b0111, 0b1011, 0b1101, 0b1110], [0, 0, 0, 1]),
            (RP2_MASKS, [0, 0, 0, 0]),
        ],
        ids=["void", "empty face only", "one vertex", "3-simplex boundary", "RP^2"],
    )
    def test_named_complexes(self, masks, ranks):
        self.check(masks)
        complex_ = AbstractComplex.from_maximal_masks(masks)
        assert complex_._rational_ranks() == ranks
        assert complex_.reduced_homology_ranks() == ranks

    def test_projective_plane_takes_one_rational_fallback(self, monkeypatch):
        # RP^2 has homology over F2 in degrees 1 and 2, so its acyclicity
        # over Q needs the signed rows, once.
        calls = []
        rational = AbstractComplex._rational_ranks

        def counted(complex_):
            calls.append(complex_)
            return rational(complex_)

        monkeypatch.setattr(AbstractComplex, "_rational_ranks", counted)
        assert maximal_acyclicity(RP2_MASKS) is True
        assert len(calls) == 1

    def test_orbit_loop_builds_no_vertex_tuple(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("vertex tuples built on the CM path")

        monkeypatch.setattr(AbstractComplex, "from_faces", classmethod(refuse))
        monkeypatch.setattr(AbstractComplex, "faces", property(refuse))
        assert cm_verdict(build_semigroup([1, 1, 1], [3, 3, 3])).status == "cm"


ORBIT_CASES = [
    ([1, 1], [2, 2]),
    ([1, 1, 1], [1, 1, 1]),
    ([1, 1, 1], [1, 2, 2]),
    ([1, 1, 1, 1], [1, 1, 1, 1]),
    ([2, 2], [1, 1]),
    ([1, 2], [2, 3]),
]

# The other grid instances with 2 to 12 facets where S' = S holds, so that
# the J loop of `cm_verdict` runs on them.
ORBIT_GRID = [
    (list(p.a), list(p.b))
    for p in normalized_grid(3, 3, 3)
    if 2 <= len((s := build_semigroup(p.a, p.b)).facets) <= 12
    and s_prime_equals_s(s).holds
    and (list(p.a), list(p.b)) not in ORBIT_CASES
]


class TestOrbits:
    """The orbit representatives of the CM loop against a brute force over
    every block permutation."""

    @pytest.mark.parametrize("a,b", ORBIT_CASES)
    def test_representatives_are_least_masks(self, a, b):
        s = build_semigroup(a, b)
        orbits = facet_orbits(s)
        assert all_orbit_masks(s) == sorted(min(orbit) for orbit in orbits)
        assert set().union(*orbits) == set(range(1, (1 << len(s.facets)) - 1))

    @pytest.mark.parametrize("a,b", ORBIT_CASES + ORBIT_GRID)
    def test_gj_and_pi_j_constant_on_orbits(self, a, b):
        # Every J of an orbit has its representative's record, up to the
        # facet labels: the same ranks, acyclicity and G_J status, and
        # maximal faces of the same sizes.
        s = build_semigroup(a, b)
        records = every_j_record(s)

        def shape(record):
            sizes = sorted(len(face) for face in record["pi_maximal_faces"])
            return record["homology_ranks"], record["acyclic"], record["gj_status"], sizes

        for orbit in facet_orbits(s):
            rep = shape(records[min(orbit) - 1])
            assert all(shape(records[mask - 1]) == rep for mask in orbit), (a, b, sorted(orbit))

    def test_orbit_counts(self):
        assert len(all_orbit_masks(build_semigroup([1, 1], [8, 8]))) == 43
        assert len(all_orbit_masks(build_semigroup([1, 1, 1], [3, 3, 3]))) == 118

    def test_single_facet_has_no_subsets(self):
        assert _orbit_masks(build_semigroup([1, 1], [1, 1])) == []
        assert all_orbit_masks(build_semigroup([1, 1], [1, 1])) == []


WHOLE_BLOCK_SOURCES = ["sweep444", "workloads", "cm3", "cm3-cap-lifted"]


@functools.cache
def whole_block_cases(source):
    """[(params, subset cap)] of the instances on which the CM loop over
    whole-block orbits is compared with the loop over every orbit: the
    non-normal instances of sweep(4, 4, 4), the benchmark workloads, CM3
    (1,2),(1,b) for b <= 14, and CM3 at b = 18 and 40 with the cap lifted."""
    cap = hoatrung.SUBSET_CAP
    if source == "sweep444":
        return [
            (p, cap) for p in normalized_grid(4, 4, 4)
            if not is_normal(build_semigroup_from_params(p)).is_normal
        ]
    if source == "workloads":
        return [
            (SVParams.of(i["a"], i["b"]), i["subset_cap"])
            for items in json.loads(WORKLOADS.read_text()).values() for i in items
        ]
    if source == "cm3":
        return [(SVParams.of([1, 2], [1, b]), cap) for b in range(1, 15)]
    return [(SVParams.of([1, 2], [1, b]), b + 2) for b in (18, 40)]


# sweep(4, 4, 4) has 120,900 whole-block orbits on its non-normal
# instances, and building every complex among them that is not a cone takes
# about 30 s.  There the per-orbit comparison takes the J of at most
# SWEEP_J_FACETS facets (12,292 complexes built, about 5 s), and the orbits
# with a partial block on the instances of at most SWEEP_FACETS facets.
# Every other source is compared on every orbit.
SWEEP_J_FACETS = 9
SWEEP_FACETS = 10


def check_orbits_by_block_states(s, max_j=math.inf, max_facets=math.inf) -> int:
    """The whole-block orbits are the orbits that fill or miss each block,
    every other orbit is a cone, and on every whole-block orbit the cone
    test and the reduced Euler characteristic read off the block states
    (`_pi_shape`) are those of the complex built from the cut ray masks;
    returns the number of complexes compared."""
    wholes = _orbit_masks(s)
    compared = 0
    for jmask in wholes:
        if jmask.bit_count() > max_j:
            continue
        maximal = hoatrung._pi_maximal(s, jmask)
        coned_, euler = _pi_shape(s, jmask)
        assert coned_ == coned(maximal), (s.params, jmask)
        if coned_:  # a void complex or a cone
            assert euler == 0, (s.params, jmask)
            continue
        built = capped_complex(maximal)
        if built is not None:
            assert euler == built.euler_characteristic_reduced(), (s.params, jmask)
            compared += 1
    if len(s.facets) <= max_facets:
        every = all_orbit_masks(s)
        blocks = [
            sum(1 << t for t, f in enumerate(s.facets) if f.kind == "coord" and f.i == i)
            for i in range(1, s.params.k + 1)
        ]
        assert wholes == [m for m in every if all(m & c in (0, c) for c in blocks)], s.params
        for jmask in sorted(set(every) - set(wholes)):
            assert _pi_shape(s, jmask) == (True, 0), (s.params, jmask)
            assert coned(hoatrung._pi_maximal(s, jmask)), (s.params, jmask)
    return compared


class TestWholeBlockLoop:
    """The CM loop visits only the orbits of J that hold all or none of each
    block's coordinate facets and reads their cone test and Euler
    characteristic off the block states; the loop over every orbit, with
    every complex that is not coned off built, is its reference
    (`orbit_loop_verdict`)."""

    @pytest.mark.parametrize("source", WHOLE_BLOCK_SOURCES)
    def test_verdict_matches_the_every_orbit_loop(self, source):
        for p, cap in whole_block_cases(source):
            fast = cm_verdict(build_semigroup_from_params(p), cap)
            assert fast == orbit_loop_verdict(build_semigroup_from_params(p), cap), p

    @pytest.mark.parametrize("source", WHOLE_BLOCK_SOURCES)
    def test_every_orbit_by_block_states(self, source):
        limits = (SWEEP_J_FACETS, SWEEP_FACETS) if source == "sweep444" else ()
        compared = sum(
            check_orbits_by_block_states(build_semigroup_from_params(p), *limits)
            for p, _ in whole_block_cases(source)
        )
        assert compared > 0

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=3)
    )
    @settings(max_examples=80, deadline=None)
    def test_small_instances_by_block_states(self, blocks):
        # Blocks of up to 5 coordinates, past sweep(4, 4, 4).
        s = build_semigroup([a for a, _ in blocks], [b for _, b in blocks])
        assume(len(s.facets) <= 12)
        check_orbits_by_block_states(s)

    def test_cm3_visits_six_orbits(self):
        # (1,2),(1,b) has 4b + 2 orbits, 6 of which fill or miss each block.
        for b in range(2, 15):
            s = build_semigroup([1, 2], [1, b])
            assert (len(all_orbit_masks(s)), len(_orbit_masks(s))) == (4 * b + 2, 6)

    def test_cm3_with_the_cap_lifted_builds_no_complex(self, monkeypatch):
        # The loop decides the same six orbits at every b, each by its
        # block states, and builds no complex; built face by face, pi_J of
        # block 2's coordinate facets is the boundary of the b-simplex.
        def refuse(*_):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(AbstractComplex, "from_maximal_masks", staticmethod(refuse))
        decided = []

        def counted(s, jmask, real=_pi_acyclicity):
            decided[-1] += 1
            return real(s, jmask)

        monkeypatch.setattr(hoatrung, "_pi_acyclicity", counted)
        for b in (18, 40, 160):
            decided.append(0)
            v = cm_verdict(build_semigroup([1, 2], [1, b]), subset_cap=b + 2)
            assert v.status == "cm", b
        assert decided == [6, 6, 6]


def substituted_masks(faces, sizes):
    """Faces of the complex F (int masks over its vertices) with each vertex
    v replaced by a simplex on sizes[v] new vertices and its boundary, built
    explicitly: a face of F gives every set holding all of the simplex of
    each of its vertices and a proper subset of the simplex of every other
    vertex."""
    offsets = list(itertools.accumulate([0, *sizes]))
    out = []
    for face in faces:
        choices = []
        for v, (start, b) in enumerate(zip(offsets, sizes)):
            block = ((1 << b) - 1) << start
            if face >> v & 1:
                choices.append([block])
            else:
                choices.append([block & ~(1 << start + j) for j in range(b)])
        out.extend(map(sum, itertools.product(*choices)))
    return out


# The exact ranks over Q by the integer oracle take seconds above a few
# hundred faces; the substituted complexes reach 2^15.
SUBSTITUTION_RATIONAL_FACES = 400


@functools.cache
def state_complex_cases(source):
    """The semigroups on which `_pi_acyclicity` is compared with the built
    pi_J on every whole-block orbit."""
    if source == "grid":
        return [build_semigroup_from_params(p) for p in normalized_grid(3, 3, 3)]
    if source == "cm3":
        return [build_semigroup([1, 2], [1, b]) for b in range(1, 9)]
    a, b = {"segre4": ([1, 1, 1], [4, 4, 4]), "four": ([1, 1, 1, 1], [2, 2, 2, 2])}[source]
    return [build_semigroup(a, b)]


class TestStateComplex:
    """pi_J on a whole-block J is its state complex F with each filled
    block's vertex replaced by (simplex on its b_i facets, boundary), so
    its ranks are F's shifted up by the sum of b_i - 1 (`_pi_shape`); the
    explicitly substituted complex and the built pi_J are the references."""

    @given(
        st.lists(st.integers(0, 31), min_size=1, max_size=8),
        st.lists(st.integers(1, 3), min_size=5, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_substitution_shifts_the_ranks(self, masks, sizes):
        faces = {u for m in masks for u in hoatrung._submasks(m)}
        shifted = [0] * sum(b - 1 for b in sizes)
        shifted += AbstractComplex.from_maximal_masks(masks).reduced_homology_ranks()
        complex_ = AbstractComplex.from_maximal_masks(substituted_masks(faces, sizes))
        # On at most 5 vertices F has no torsion, nor has its suspension, so
        # the ranks over F2 are those over Q.
        assert complex_._f2_ranks() == complex_.reduced_homology_ranks() == shifted
        if len(complex_.faces) <= SUBSTITUTION_RATIONAL_FACES:
            assert integer_homology_ranks(complex_.faces) == shifted

    def test_named_substitutions(self):
        # The empty complex {()} with two blocks of 2 becomes the join of two
        # pairs of points, a 4-cycle; with one block of 3, the boundary of a
        # triangle.  A vertex with a block of 3 becomes the whole triangle.
        square = substituted_masks({0}, [2, 2])
        assert sorted(square) == [0b0101, 0b0110, 0b1001, 0b1010]
        assert AbstractComplex.from_maximal_masks(square).reduced_homology_ranks() == [0, 0, 1]
        circle = AbstractComplex.from_maximal_masks(substituted_masks({0}, [3]))
        assert circle.reduced_homology_ranks() == [0, 0, 1]
        assert sorted(substituted_masks({0, 1}, [3])) == [0b011, 0b101, 0b110, 0b111]

    @pytest.mark.parametrize("source", ["grid", "segre4", "four", "cm3"])
    def test_ranks_match_the_built_pi_j(self, source):
        built = 0
        for s in state_complex_cases(source):
            for jmask in _orbit_masks(s):
                acyclic, ranks = _pi_acyclicity(s, jmask)
                complex_ = AbstractComplex.from_maximal_masks(hoatrung._pi_maximal(s, jmask))
                want = complex_.reduced_homology_ranks()
                assert acyclic is not any(want[1:]), (s.params, jmask)
                if ranks is not None:
                    assert ranks == want, (s.params, jmask)
                    built += 1
        assert built > 0 or source == "cm3"


# The listing of every orbit on all 4,771 non-normal instances of sweep(4, 4,
# 4) takes minutes.  There the listings are compared on the 441 instances of
# at most SWEEP_LISTING_FACETS facets; on every instance, the block states
# that the cone and Euler tiers of the records' ladder read are compared
# with the built complexes for the J of at most SWEEP_J_FACETS facets
# (`check_orbits_by_block_states`).
SWEEP_LISTING_FACETS = 6


def check_listing_against_every_orbit(s) -> int:
    """The `--evidence` listing (`j_records`) against the listing of every
    orbit (`all_orbit_j_records`): it is the latter's records of the orbits
    the verdict visits, in order, with no ranks where the Euler
    characteristic settles pi_J (`verdict_listing`); every orbit left out
    is coned off by its maximal faces (`coned`), and `j_record` reads it as
    the cone it is.  Returns the number of records the Euler
    characteristic settles."""
    records, stopped = j_records(s)
    built, built_stopped = all_orbit_j_records(s)
    assert stopped is None and built_stopped is None
    assert records == verdict_listing(s, built), s.params
    visited = set(_orbit_masks(s))
    for r in built:
        jmask = record_mask(s, r)
        if jmask not in visited:
            assert coned(hoatrung._pi_maximal(s, jmask)), (s.params, jmask)
            assert hoatrung.j_record(s, jmask) == r, (s.params, jmask)
    return sum(r["homology_ranks"] is None and r["acyclic"] is False for r in records)


class TestEvidenceListing:
    """`--evidence` lists the orbits the verdict visits, in its order, each
    settled by the verdict's own ladder (`_pi_acyclicity`); the listing of
    every orbit, with every complex that is not coned off built, is its
    reference (`all_orbit_j_records`)."""

    @pytest.mark.parametrize("source", WHOLE_BLOCK_SOURCES)
    def test_listing_matches_the_every_orbit_listing(self, source):
        cases = [build_semigroup_from_params(p) for p, _ in whole_block_cases(source)]
        if source == "sweep444":
            cases = [s for s in cases if len(s.facets) <= SWEEP_LISTING_FACETS]
        assert sum(map(check_listing_against_every_orbit, cases)) > 0

    @pytest.mark.parametrize("b", [18, 40, 200])
    def test_cm3_listing_builds_no_complex(self, b, monkeypatch):
        # With the subset cap lifted, the listing holds the six orbits the
        # verdict visits at every b, each settled by its block states, so
        # none has `acyclic: null`, where the listing of every orbit
        # (`all_orbit_j_records`) builds block 2's coordinate facets past
        # its face cap from b = 18 on.
        def refuse(*_):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(AbstractComplex, "from_maximal_masks", staticmethod(refuse))
        report = classify(SVParams.of([1, 2], [1, b]), subset_cap=b + 2, full_evidence=True)
        records = report.evidence["j_records"]
        assert len(records) == 6 and "j_records_stopped" not in report.evidence
        assert all(r["acyclic"] is not None for r in records)
        assert sum(r["homology_ranks"] is None for r in records) == 2


# (a, b, box radius): G2, the Gorenstein (2),(2), and instances refuted by a
# tie or by a z with [z in G_F] != [x0 - z in S], at radii that keep the box
# scan cheap.
ORACLE_CASES = [
    ([1, 2], [1, 1], 8),
    ([2], [2], 6),
    ([2, 2], [1, 1], 8),
    ([2], [3], 5),
    ([1, 2], [1, 3], 4),
    ([1, 1, 1], [1, 2, 2], 3),
]


class TestGJ:
    def test_nonempty_with_verified_points(self):
        s = build_semigroup([1, 2], [1, 2])
        r = gj_empty(s, [F11, F21])
        assert not r.is_empty
        assert r.points

    def test_reference_points_belong(self):
        s = build_semigroup([1, 2], [1, 2])

        def in_gj(x, J):
            ins = [f for f in s.facets if f not in J]
            return all(profile_member(s, f, x) for f in ins) and not any(
                profile_member(s, f, x) for f in J
            )

        assert in_gj((-1, -1, 5), {F11, F21})
        assert in_gj((1, -1, -1), {F21, F22, B1})
        assert in_gj((-1, -1, 5), {F11, F21})

    def test_empty_cases(self):
        s = build_semigroup([1, 2], [1, 2])
        assert gj_empty(s, [F11, B1]).is_empty
        assert gj_empty(s, [F21, F22]).is_empty

    def test_rejects_improper_subsets(self):
        s = build_semigroup([1, 2], [1, 2])
        with pytest.raises(ValueError):
            gj_empty(s, [])
        with pytest.raises(ValueError):
            gj_empty(s, list(s.facets))

    def test_rejects_repeated_facets(self):
        s = build_semigroup([1, 2], [1, 2])
        f0, f1 = s.facets[:2]
        with pytest.raises(ValueError, match=r"repeated facets in J: \['F_\{1,1\}'\]"):
            gj_empty(s, [F11, F11])
        with pytest.raises(ValueError, match="repeated") as err:
            gj_empty(s, [f0, f0, f1, f1])
        assert f0.label() in str(err.value) and f1.label() in str(err.value)
        assert gj_empty(s, [f0, f1]).j_facets == (f0, f1)

    def test_engine_agrees_with_direct_scan(self):
        # Emptiness of G_J from the exact decision against the box scan, for
        # every proper facet subset J: a G_J the box meets is nonempty, and
        # every listed point lies in G_J and in the box of the proved radius.
        for a, b, radius in ORACLE_CASES:
            s = build_semigroup(a, b)
            sigs = box_signatures(s, radius)
            every = frozenset(s.facets)
            nf = len(s.facets)
            for jmask in range(1, (1 << nf) - 1):
                j = frozenset(f for t, f in enumerate(s.facets) if jmask >> t & 1)
                members = {v for v, sig in sigs.items() if sig == every - j}
                r = _gj_scan(s, sorted(j))
                assert r.is_empty <= (not members), (a, b, [f.label() for f in j])
                for v in r.points:
                    assert max(map(abs, v)) <= r.radius
                    assert {f for f in s.facets if profile_member(s, f, v)} == every - j


class TestEngineAgainstBoxScan:
    """The block-sum region engine against a brute-force scan of the box."""

    @pytest.mark.parametrize("a,b,radius", ORACLE_CASES)
    def test_gf_top_region_and_sup(self, a, b, radius):
        # The top of G_F in the box is the exact top region's every point,
        # and its supremum is the region's one-walk `max_coordinate`.
        s = build_semigroup(a, b)
        gf = [v for v, sig in box_signatures(s, radius).items() if not sig]
        top = max(sum(v) for v in gf)
        ties = sorted(v for v in gf if sum(v) == top)
        region = _gf_top_region(s)
        assert region.total_hi == top
        assert max(map(abs, region.lo + region.hi)) <= radius
        assert region.enumerate_points(len(ties) + 1) == ties
        assert region.max_coordinate() == tuple(max(v[p] for v in ties) for p in range(s.n))

    @pytest.mark.parametrize("a,b,radius", ORACLE_CASES)
    def test_total_range_and_h_vector_find_the_top_of_gf(self, a, b, radius):
        # The exact total range of G_F ends at its largest total in the box,
        # and the h-vector, counted three degrees further and cut after its
        # last nonzero coefficient, ends at that total plus 2d.
        s = build_semigroup(a, b)
        top = max(sum(v) for v, sig in box_signatures(s, radius).items() if not sig)
        ranges = [r.total_range() for r in hoatrung.difference_regions(s, (), s.facets)]
        assert max(high for _, high in filter(None, ranges)) == top
        h = _h_vector(s, top + 2 * s.rank + 3)
        while not h[-1]:
            h.pop()
        assert len(h) - 1 - 2 * s.rank == top
        assert _h_vector(s, top + 2 * s.rank) == h

    @pytest.mark.parametrize("a,b,radius", ORACLE_CASES)
    def test_shifted_copy_counterexample(self, a, b, radius):
        # Where x0 is unique, the verdict of the h-vector is the box scan's:
        # "consistent" iff no z in the radius - 1 box has [z in G_F] != [x0 - z
        # in S].  The refuted ones have such a z already in a small box.
        s = build_semigroup(a, b)
        g = gorenstein_witness(s)
        if g.x0 is None:
            return  # refuted by a tie
        bad = [
            z for z, sig in box_signatures(s, radius).items()
            if max(map(abs, z)) < radius and (not sig) != s.membership.member(vsub(g.x0, z))
        ]
        assert g.is_consistent == (not bad)
        first = {((1, 2), (1, 3)): 1, ((1, 1, 1), (1, 2, 2)): 2}.get((tuple(a), tuple(b)))
        assert min((max(map(abs, z)) for z in bad), default=None) == first

    @pytest.mark.parametrize("a,b", [([1, 2], [1, 1]), ([2, 2], [1, 1])])
    def test_gj_points_cover_both_parities(self, a, b):
        # With one coordinate per block the engine lists G_J in lexicographic
        # order, so its listing is the first points of the box scan at its
        # radius, odd and even alike.
        s = build_semigroup(a, b)
        every = frozenset(s.facets)
        nf = len(s.facets)
        listed_odd = False
        for jmask in range(1, (1 << nf) - 1):
            j = [f for t, f in enumerate(s.facets) if jmask >> t & 1]
            r = gj_empty(s, j)
            sigs = box_signatures(s, r.radius)
            members = sorted(v for v, sig in sigs.items() if sig == every - set(j))
            assert list(r.points) == members[:24]
            listed_odd |= any(sum(v) % 2 for v in r.points)
        assert listed_odd


@pytest.mark.parametrize("name", ["grid", "spot", "segre"])
def test_pi_j_from_rays_matches_the_whole_table(name):
    # Every generator's mask lies under a ray's, so on every orbit J the
    # maximal cut masks of the rays are those of the whole incidence table.
    orbits = 0
    for inst in json.loads(WORKLOADS.read_text())[name]:
        s = build_semigroup(inst["a"], inst["b"])
        table = set(incidence_masks(s.params, s.facets))
        for jmask in all_orbit_masks(s):
            assert cut_maximal(s.ray_masks, jmask) == cut_maximal(table, jmask), inst
            orbits += 1
    assert orbits > 0


WORKLOAD_INSTANCES = [
    pytest.param(inst["a"], inst["b"], id=f"{name}-{inst['a']}-{inst['b']}")
    for name in ("grid", "segre")
    for inst in json.loads(WORKLOADS.read_text())[name]
]


@pytest.mark.parametrize("a,b", WORKLOAD_INSTANCES)
def test_max_total_matches_the_plain_walk_on_the_gf_regions(a, b):
    # `max_total` against the plain-walk oracle on the G_F regions of the
    # box of radius 2(max a + 2), and of twice that.  A model with no facet
    # has no G_F region.
    s = build_semigroup(a, b)
    if not s.facets:
        return
    radius = 2 * (max(a) + 2)
    for scan_radius in (radius, 2 * radius):
        for region in map(box(scan_radius), hoatrung.difference_regions(s, (), s.facets)):
            want = plain_max_total(region, point_limit=4)
            assert region.max_total(point_limit=4) == want, scan_radius


# The CM instances of the grid, by the table, less the zero semigroup
# (1),(b), which `classify` settles without the verdicts.
CM_GRID = [
    pytest.param(p, id=f"{list(p.a)}-{list(p.b)}")
    for p in normalized_grid(3, 3, 3)
    if expected_verdicts(p).cohen_macaulay and p.a != (1,)
]


class TestVerdictsReadTheirOwnSemigroup:
    """The verdicts read the S_F closed forms kept on their semigroup, so
    each answers as `classify` does whichever verdict builds them first."""

    @pytest.mark.parametrize("p", CM_GRID)
    def test_verdicts_in_either_order_match_classify(self, p):
        # Full evidence, and with it every G_J of a non-normal cone, up to 8
        # facets (254 subsets); beyond that the listing costs seconds per
        # instance.
        evidence = len(build_semigroup_from_params(p).facets) <= 8
        report = classify(p, full_evidence=evidence)
        assert report.cohen_macaulay.status == YES
        gorenstein_first = build_semigroup_from_params(p)
        gw = gorenstein_witness(gorenstein_first)
        runs = [(cm_verdict(gorenstein_first), gw)]
        cm_first = build_semigroup_from_params(p)
        cm = cm_verdict(cm_first)
        runs.append((cm, gorenstein_witness(cm_first)))
        assert runs[0] == runs[1]
        for cm, gw in runs:
            assert cm.status == "cm"
            if report.normal.status == YES:
                # Decided by theorem (Hochster, Stanley); the facet criterion
                # gives the same verdicts and witness.
                assert gw.is_consistent == (report.gorenstein.status == YES)
                assert (gw.x0 if gw.is_consistent else None) == report.gorenstein.witness
                continue
            assert cm.reason == report.cohen_macaulay.detail
            assert gw.reason == report.gorenstein.detail
            assert report.evidence["gorenstein"] == gw.to_dict()
        if evidence and report.normal.status != YES:
            alone = build_semigroup_from_params(p)
            for record in report.evidence["j_records"]:
                gj = gj_empty(alone, [f for f in alone.facets if f.label() in record["J"]])
                assert gj.status == record["gj_status"], record["J"]
                assert [list(v) for v in gj.points] == record["gj_points"], record["J"]

    def test_classify_builds_the_closed_forms_once_in_their_stage(self, monkeypatch):
        # The premise of the closed forms is checked once per classify call,
        # inside the `build_profiles` stage the benchmark's tracer wraps.
        # Each check ends by marking the semigroup's membership engine, so
        # the marks written count the checks.
        stage, checks = [], []

        def mark(engine, value):
            if value is not None:
                checks.append(bool(stage))
            engine.__dict__["profiles"] = value

        def traced_stage(s):
            stage.append(s)
            try:
                return hoatrung.build_profiles(s)
            finally:
                stage.pop()

        marked = property(lambda engine: engine.__dict__["profiles"], mark)
        monkeypatch.setattr(SemigroupMembership, "profiles", marked, raising=False)
        classify_module = importlib.import_module("svtangent.classify")
        monkeypatch.setattr(classify_module, "build_profiles", traced_stage)
        for a, b in [([1, 2], [1, 1]), ([2], [3]), ([2, 2], [1, 2]), ([1, 1], [2, 3])]:
            checks.clear()
            classify(SVParams.of(a, b), full_evidence=True)
            assert checks == [True], (a, b)


class TestCMAndGorenstein:
    def test_cm_fixtures(self):
        assert cm_verdict(build_semigroup([2, 2], [1, 1])).is_cm
        assert not cm_verdict(build_semigroup([2, 2], [1, 2])).is_cm
        assert cm_verdict(build_semigroup([2], [3])).is_cm

    def test_short_circuit_matches_full_evidence(self):
        s = build_semigroup([1, 2], [1, 2])
        short = cm_verdict(s)
        records = every_j_record(s)
        assert (short.status, short.reason) == full_walk(records)
        assert short.status == "cm"
        # The evidence listing is the full listing cut down to the orbits
        # the verdict visits, in the same order, with no ranks where the
        # Euler characteristic settles pi_J.
        assert j_records(s) == (verdict_listing(s, records), None)

    def test_orbit_loop_matches_full_loop_on_grid(self):
        # Where the J loop decides (S' = S holds), the loop over orbit
        # representatives stops at the first failing J of the listing of
        # every J, with the same reason and witness.
        checked = 0
        for p in normalized_grid(3, 3, 3):
            s = build_semigroup(p.a, p.b)
            if not generator_vectors(s.params) or len(s.facets) > 10:
                continue
            if not s_prime_equals_s(s).holds:
                continue
            short = cm_verdict(s)
            records = every_j_record(s)
            assert (short.status, short.reason) == full_walk(records), p
            failing = [
                r for r in records
                if r["acyclic"] is False and r["gj_status"] == "nonempty"
            ]
            if failing:
                first = failing[0]
                assert short.status == "not-cm"
                assert short.reason.startswith(f"J={first['J']} has")
                assert first["acyclic"] is False
                gj = gj_empty(s, jset(s, record_mask(s, first)))
                assert gj.status == first["gj_status"]
                assert [list(v) for v in gj.points] == first["gj_points"]
                assert short.reason.endswith(f"(witness {first['gj_points'][0]})")
            else:
                assert short.status == "cm"
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "a,b",
        [([1, 2], [1, 3]), ([1, 1], [2, 3]), ([1, 1, 1], [1, 2, 2]), ([1, 1, 1], [2, 2, 2])],
    )
    def test_orbit_loop_stops_where_full_loop_first_fails(self, a, b, monkeypatch):
        # On these instances every non-acyclic pi_J comes with an empty G_J,
        # so no J fails.  Reporting every G_J nonempty makes the loop stop,
        # and the listing's first failure fall, at the first non-acyclic
        # pi_J, which is constant on orbits.
        def nonempty(s, j_facets):
            return GJResult(tuple(sorted(j_facets)), "nonempty", ((0,) * s.n,))

        # The verdict reads G_J in closed form, the listing by `_gj_scan`.
        monkeypatch.setattr(hoatrung, "_gj_scan", nonempty)
        monkeypatch.setattr(hoatrung, "_gj_parities", lambda s, j: [(None, (0,) * s.n)])
        monkeypatch.setattr(hoatrung, "_gj_recheck", lambda s, j, x: 0)
        s = build_semigroup(a, b)
        short = cm_verdict(s)
        records = every_j_record(s)
        first = next(r for r in records if r["acyclic"] is False)
        assert (short.status, short.reason) == full_walk(records)
        assert short.status == "not-cm"
        assert short.reason.startswith(f"J={first['J']} has")

    @pytest.mark.parametrize("a,b", [([1, 1, 1], [2, 2, 2]), ([1, 2], [1, 3])])
    def test_evidence_homology_ranks_match_fresh(self, a, b):
        # Each record's ranks equal a fresh computation on its own pi_J.
        for r in every_j_record(build_semigroup(a, b)):
            fresh = AbstractComplex.from_faces(r["pi_maximal_faces"])
            assert r["homology_ranks"] == fresh.reduced_homology_ranks(), r["J"]

    @pytest.mark.parametrize("a,b", [([2, 2], [1, 2]), ([1, 1, 1], [1, 2, 2])])
    def test_evidence_pi_maximal_in_mask_order(self, a, b):
        # The reported maximal faces come by decreasing size, then by
        # increasing mask, as the whole incidence table gives them.
        s = build_semigroup(a, b)
        table = incidence_masks(s.params, s.facets)
        for r in every_j_record(s):
            maximal = cut_maximal(table, record_mask(s, r))
            expected = [[f.label() for f in jset(s, m)] for m in maximal]
            assert r["pi_maximal_faces"] == expected, r["J"]

    def test_gorenstein_fixtures(self):
        g = gorenstein_witness(build_semigroup([1, 2], [1, 1]))
        assert g.is_consistent and g.x0 == (0, -1)
        g = gorenstein_witness(build_semigroup([3], [1]))
        assert g.is_consistent and g.x0 == (1,)
        g = gorenstein_witness(build_semigroup([2], [2]))
        assert g.is_consistent and g.x0 == (-1, -1)

    def test_gorenstein_refuted_for_odd_veronese_block(self):
        g = gorenstein_witness(build_semigroup([2], [3]))
        assert g.status == "refuted"
        assert g.coordwise_sup == (-1, -1, -1)
        assert g.sup_in_group is False

    def test_consistent_witness_stays_in_gf(self):
        s = build_semigroup([2], [2])
        g = gorenstein_witness(s)
        assert g.is_consistent
        assert _gf_member(s, g.x0)
        for gen in generator_vectors(s.params):
            shifted = tuple(x - y for x, y in zip(g.x0, gen))
            assert _gf_member(s, shifted)

    def test_subset_cap_yields_undetermined(self):
        s = build_semigroup([1, 2], [1, 2])
        v = cm_verdict(s, subset_cap=2)
        assert v.status == "undetermined"


class TestUndeterminedExits:
    """Only a resource cap leaves a verdict undetermined: the subset cap for
    the Cohen-Macaulay verdict, whose pi_J homology and G_J are exact with no
    build past the state complex and no walk, and the engine budget for the
    walk of the top of G_F."""

    def test_subset_cap_first_stops_cm3_at_b_13(self):
        # (1,2),(1,13) has 15 facets, one past the default cap.
        report = classify(SVParams.of([1, 2], [1, 13]))
        assert report.cohen_macaulay.status == report.gorenstein.status == "undetermined"
        assert report.cohen_macaulay.detail == "15 facets exceed the subset cap 14"
        assert report.gorenstein.detail == "Cohen-Macaulay status undetermined"

    def test_segre_6_decides_past_the_old_face_cap(self):
        # (1,1,1),(6,6,6) is normal, hence Cohen-Macaulay (Hochster).  Its
        # facet criterion once stopped at "complex too large": the pi_J of
        # every coordinate facet and two balance facets passed 200,000
        # faces; its G_J is nonempty, so it needs pi_J's homology.  Its state
        # complex has 5 vertices.
        s = build_semigroup([1, 1, 1], [6, 6, 6])
        assert cm_verdict(s, subset_cap=21).status == "cm"
        coord, balance = s.block_masks
        jmask = sum(coord) | balance[0] | balance[1]
        assert _pi_acyclicity(s, jmask) == (True, [0] * 19)
        assert hoatrung._gj_parities(s, hoatrung._mask_facets(s, jmask))


class TestJRefutation:
    """`cm_verdict`'s one `not-cm` route past S' = S: a non-acyclic pi_J
    with a nonempty G_J.  No unpatched instance reaches it (every swept
    non-normal cone on which S' = S holds is Cohen-Macaulay), so the test
    patches the loop's per-orbit decision (`_pi_acyclicity`) on one J."""

    def test_a_non_acyclic_complex_with_a_nonempty_region_refutes(self, monkeypatch):
        # On (1,2),(1,2) the orbit J = {F_{1,1}} has an acyclic pi_J and a
        # nonempty G_J; declared non-acyclic, it refutes with a point of
        # G_J, which lies in every S_F off J and in no S_F of J.
        s = build_semigroup([1, 2], [1, 2])
        target = 1 << s.facets.index(F11)
        assert target in _orbit_masks(s)
        assert _pi_acyclicity(s, target)[0] and not _gj_scan(s, [F11]).is_empty
        monkeypatch.setattr(
            hoatrung, "_pi_acyclicity", lambda s, jmask, real=_pi_acyclicity: (
                (False, None) if jmask == target else real(s, jmask)
            ),
        )
        v = cm_verdict(s)
        # The point nearest 0 of G_J's even part, read in closed form; it is
        # among the points the listing shows.
        witness = (-1, 1, 0)
        assert witness in _gj_scan(s, [F11]).points
        assert v.status == "not-cm"
        assert v.reason == (
            "J=['F_{1,1}'] has a non-acyclic complex and a nonempty region "
            f"(witness {list(witness)})"
        )
        assert v.sprime.holds
        inside, _ = hoatrung._sf_facets(s, witness)
        assert inside == (1 << len(s.facets)) - 1 - (1 << s.facets.index(F11))


class TestGorensteinPremiseRaises:
    """On a Cohen-Macaulay cone the top of G_F is one finite box, the
    h-vector is nonnegative of degree a + 2d and h_D counts that box
    (`gorenstein_witness`); a stage that finds otherwise raises."""

    S = ([1, 2], [1, 3])  # Cohen-Macaulay, not normal, h_D = 1

    def test_a_top_region_is_required(self, monkeypatch):
        monkeypatch.setattr(hoatrung, "_gf_top_region", lambda s: None)
        with pytest.raises(RuntimeError, match="the top of G_F is not one finite box"):
            gorenstein_witness(build_semigroup(*self.S))

    def test_an_h_vector_is_required(self, monkeypatch):
        monkeypatch.setattr(hoatrung, "_h_vector", lambda s, degree: None)
        with pytest.raises(RuntimeError, match="the h-vector is negative or runs past degree a"):
            gorenstein_witness(build_semigroup(*self.S))

    def test_h_d_must_count_the_top(self, monkeypatch):
        def shifted(s, degree):
            h = _h_vector(s, degree)
            return h[:-1] + [h[-1] + 1]

        monkeypatch.setattr(hoatrung, "_h_vector", shifted)
        with pytest.raises(RuntimeError, match=r"G_F has 1 elements at .*, but h_D = 2"):
            gorenstein_witness(build_semigroup(*self.S))

    def test_every_cone_with_facets_has_a_top_region(self):
        # The proof of `_gf_top_region` needs no Cohen-Macaulay premise.
        for p in normalized_grid(4, 4, 4):
            s = build_semigroup_from_params(p)
            assert not s.facets or _gf_top_region(s) is not None, p


# Cohen-Macaulay cones on which the h-vector is counted, normal or not.
H_CASES = [
    ([3], [1]),
    ([1, 2], [1, 1]),
    ([1, 2], [1, 2]),
    ([2, 2], [1, 1]),
    ([1, 2], [1, 3]),
    ([2], [3]),
    ([1, 1, 1], [1, 1, 1]),
]


def top_degree(s):
    """D = a + 2d: the largest total in G_F (the a-invariant) plus twice the
    rank, and the number of elements of G_F at that total, capped at 5, by
    the box scan of radius 2(max a + 2); the doubled box finds no more."""
    radius = 2 * (max(s.params.a) + 2)
    best, count, _ = gf_extremal(s, radius, 4)
    assert gf_extremal(s, 2 * radius, 4)[:2] == (best, count)
    return best + 2 * s.rank, count


class TestHVector:
    """The numerator of the Hilbert series over (1 - t^2)^d that decides
    Gorenstein on a unique x0, against counts from the definition."""

    @pytest.mark.parametrize("a,b", H_CASES)
    def test_counts_match_the_generator_search(self, a, b):
        # #S_m counts every nonnegative point of total m that is a sum of
        # generators; past D the brute-force h vanishes for a few degrees.
        s = build_semigroup(a, b)
        degree, _ = top_degree(s)
        memo: dict = {}
        counts = [
            sum(
                is_sum_of_generators(s, v, memo)
                for v in itertools.product(range(m + 1), repeat=s.n)
                if sum(v) == m
            )
            for m in range(degree + 4)
        ]
        series = [0] * len(counts)
        for i in range(s.rank + 1):  # times (1 - t^2)^d
            for m, c in enumerate(counts[: len(counts) - 2 * i]):
                series[m + 2 * i] += (-1) ** i * math.comb(s.rank, i) * c
        assert series[degree + 1 :] == [0, 0, 0]
        assert _h_vector(s, degree) == series[: degree + 1]

    @pytest.mark.parametrize("a,b", H_CASES + [([1, 1, 1], [1, 2, 2]), ([2], [2])])
    def test_top_coefficient_counts_the_ties(self, a, b):
        s = build_semigroup(a, b)
        degree, count = top_degree(s)
        assert count < 5
        assert _h_vector(s, degree)[-1] == count

    def test_premise_fails_below_the_top_degree(self):
        # h_D = 1, so cut one degree short h_(degree + 1) is not 0.
        s = build_semigroup([1, 2], [1, 3])
        degree, _ = top_degree(s)
        assert _h_vector(s, degree) is not None
        assert _h_vector(s, degree - 1) is None
        g = gorenstein_witness(s)
        assert g.status == "refuted" and g.reason.startswith(f"the h-vector {_h_vector(s, degree)}")


def test_x0_of_a_normal_cone_from_the_top_box():
    # The h-vector [1] puts the one element of G_F at total -14; the caps
    # and the pinned balances leave a box of one point, x0 itself.  A box
    # search around the origin finds it only from radius 7 on.
    s = build_semigroup([1, 1], [1, 7])
    g = gorenstein_witness(s)
    assert g.is_consistent and g.x0 == (-7,) + (-1,) * 7
    assert g.reason.startswith("the h-vector [1] ")
    assert g.radius == 7


def test_a_large_tie_is_counted_not_built(monkeypatch):
    # (1,1),(8,16): 6435 elements of G_F share the top total.  They are
    # counted by their block sums; only the four listed are built.
    built = []
    points = regions.Region._points

    def counted(self, sums):
        for x in points(self, sums):
            built.append(x)
            yield x

    monkeypatch.setattr(regions.Region, "_points", counted)
    g = gorenstein_witness(build_semigroup([1, 1], [8, 16]))
    assert g.status == "refuted"
    assert g.reason == "6435 extremal elements share the maximal coordinate sum"
    assert len(g.max_sum_points) == 4
    assert len(built) <= 4


def box_gf_points_of_total(s, radius, total):
    """Test-only box scan: the points of G_F in [-radius, radius]^n of the
    given total, over every point of the box with that total."""

    def points(prefix, rest):
        left = s.n - len(prefix) - 1
        if left < 0:
            if not rest:
                yield prefix
            return
        for v in range(max(-radius, rest - left * radius), min(radius, rest + left * radius) + 1):
            yield from points(prefix + (v,), rest - v)

    return [v for v in points((), total) if _gf_member(s, v)]


@pytest.mark.parametrize(
    "a,b,radius",
    [([1, 2], [1, 6], 2), ([1, 2], [1, 8], 2), ([2], [7], 2), ([1, 1], [3, 5], 3)],
)
def test_tie_count_is_the_box_count_at_the_top_total(a, b, radius):
    # The detail counts every element of G_F of largest total, not the
    # first few the top box lists.  The box scan walks down from the top of
    # the total range of G_F to the first total it finds in G_F.
    s = build_semigroup(a, b)
    g = gorenstein_witness(s)
    ties = next(
        found
        for total in range(_gf_top_region(s).total_hi, -radius * s.n - 1, -1)
        if (found := box_gf_points_of_total(s, radius, total))
    )
    assert len(ties) > 5
    assert g.reason == f"{len(ties)} extremal elements share the maximal coordinate sum"
    assert set(g.max_sum_points) <= set(ties)


# Every grid instance small enough for the full listing: up to 8 facets, 254
# facet subsets.
LISTED_GRID = [
    pytest.param(p, id=f"{list(p.a)}-{list(p.b)}")
    for p in normalized_grid(3, 3, 3)
    if len(build_semigroup_from_params(p).facets) <= 8
]


class TestEvidenceChangesNoVerdict:
    """`--evidence` lists every facet subset and decides nothing, also where
    a resource limit cuts the scans short."""

    @pytest.mark.parametrize(
        "module,name,value",
        [
            (regions, "ENGINE_BUDGET", 20),
            (regions, "ENGINE_BUDGET", 50),
            (regions, "ENGINE_BUDGET", 100),
        ],
        ids=["budget-20", "budget-50", "budget-100"],
    )
    def test_same_verdicts_with_and_without_evidence(
        self, module, name, value, monkeypatch
    ):
        monkeypatch.setattr(module, name, value)

        def verdicts(r):
            return [
                (v.status, v.detail)
                for v in (r.smooth, r.normal, r.cohen_macaulay, r.gorenstein)
            ]

        for param in LISTED_GRID:
            p = param.values[0]
            assert verdicts(classify(p)) == verdicts(classify(p, full_evidence=True)), p

    def test_listing_over_budget_says_so(self, monkeypatch):
        # (1,2),(1,2) is not normal and CM either way; at this budget the
        # listing overflows on a G_J the orbit loop never scans, because its
        # pi_J is acyclic.
        p = SVParams.of([1, 2], [1, 2])
        whole = classify(p, full_evidence=True).evidence
        assert "j_records_stopped" not in whole
        assert len(whole["j_records"]) == len(_orbit_masks(build_semigroup([1, 2], [1, 2])))
        monkeypatch.setattr(regions, "ENGINE_BUDGET", 8)
        report = classify(p, full_evidence=True)
        assert report.cohen_macaulay.status == YES
        stopped = report.evidence["j_records_stopped"]
        assert stopped.startswith("region scan over budget for J=")
        listed = report.evidence["j_records"]
        assert listed == whole["j_records"][: len(listed)]
        assert len(listed) < len(whole["j_records"])


class TestGorensteinTieOverBudget:
    @pytest.mark.parametrize("a,b", [([1, 2], [1, 2]), ([2, 2], [1, 1])])
    def test_tie_is_decided_or_the_scan_says_over_budget(self, a, b, monkeypatch):
        # The hole searches walk nothing, so the Cohen-Macaulay stage passes
        # at budgets where the walk of the top of G_F overflows.  At every
        # budget the Gorenstein verdict is the full one, with the supremum
        # of the tie, or undetermined by that scan; some budget decides it.
        p = SVParams.of(a, b)
        full = classify(p)
        want = full.evidence["gorenstein"]
        assert want["coordwise_sup"] is not None
        decided = refused = 0
        for budget in range(80):
            monkeypatch.setattr(regions, "ENGINE_BUDGET", budget)
            report = classify(p)
            if report.gorenstein == full.gorenstein:
                assert report.evidence["gorenstein"] == want
                decided += 1
            else:
                assert report.gorenstein.status == "undetermined"
                assert report.gorenstein.detail.startswith("region scan over budget: ")
                refused += 1
        assert decided and refused
