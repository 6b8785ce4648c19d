import dataclasses
import functools
import itertools
import math
import json
import operator
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    any_scan_maximal_masks,
    build_pi_j,
    integer_homology_ranks,
    per_facet_profiles,
    per_facet_sums,
    plain_max_total,
    tuple_acyclic_over_f2,
    tuple_closure,
    tuple_euler_reduced,
)
from svtangent.lattice import vsub
from svtangent.membership import Window, default_bound, default_window
from svtangent.classify import normalized_grid
from svtangent.model import FacetId, build_semigroup, facet_value, maximal_masks
from svtangent import hoatrung
from svtangent.simplicial import AbstractComplex
from svtangent.hoatrung import (
    GJResult,
    _acyclicity_from_masks,
    _closure,
    _coned,
    _coordwise_sup,
    _gf_extremal,
    _gf_regions,
    _gj_scan,
    _orbit_masks,
    _shifted_counterexample,
    _verify_shifted_counterexample,
    build_profiles,
    cm_verdict,
    gj_empty,
    gorenstein_witness,
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


def model(a, b):
    s = build_semigroup(a, b)
    return s, build_profiles(s)


def _gf_member(s, profiles, x) -> bool:
    return s.group_member(x) and not any(
        profile_member(s, profiles[f], x) for f in s.facets
    )


def box_signatures(s, profiles, radius):
    """Test-only box scan: every group point of [-radius, radius]^n, mapped
    to the set of facets whose localized set contains it.  A point lies in
    G_J exactly when its signature is the complement of J."""
    out = {}
    for v in itertools.product(range(-radius, radius + 1), repeat=s.n):
        if s.group_member(v):
            out[v] = frozenset(
                f for f in s.facets if profile_member(s, profiles[f], v)
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


class TestFaceGenerators:
    def test_mixed_degree_facet(self):
        s = build_semigroup([1, 2], [1, 2])
        gens = s.facet_generators(F11)
        assert all(g[0] == 0 for g in gens)
        assert set(gens) == {(0, 2, 0), (0, 1, 1), (0, 0, 2)}

    def test_balance_facet_of_segre_point(self):
        s = build_semigroup([1, 1], [1, 1])
        # The single facet of this ray is the origin; its generator list is
        # empty and the balance hyperplanes contain the whole cone.
        assert s.facet_generators(s.facets[0]) == ()

    def test_balance_facet_mixed(self):
        s = build_semigroup([1, 2], [1, 1])
        assert s.facet_generators(B1) == ((1, 1),)

    def test_coordinate_facet_two_by_two(self):
        s = build_semigroup([2, 2], [1, 1])
        assert s.facet_generators(F21) == ((2, 0),)


class TestSfMember:
    def test_two_by_two_nonmember(self):
        s = build_semigroup([2, 2], [1, 1])
        r = sf_member(s, F11, (0, 1), bound=96)
        assert not r.is_member

    def test_two_by_two_member(self):
        s = build_semigroup([2, 2], [1, 1])
        r = sf_member(s, F11, (1, -2), bound=96)
        assert r.is_member
        assert s.membership.member(tuple(a + b for a, b in zip((1, -2), r.witness)))

    def test_unit_vector_member_on_coordinate_facet(self):
        s = build_semigroup([2, 2], [1, 2])
        r = sf_member(s, F11, (1, 0, 0), bound=96)
        assert r.is_member

    def test_domain_error_outside_group(self):
        s = build_semigroup([2], [2])
        with pytest.raises(ValueError):
            sf_member(s, F11, (1, 0), bound=10)

    def test_witness_lies_on_facet(self):
        s = build_semigroup([1, 2], [1, 2])
        r = sf_member(s, F11, (-1, 1, 2), bound=96)
        if r.is_member:
            assert r.witness[0] == 0


class TestProfilesMatchBoundedSearch:
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
        s, profiles = model(a, b)
        radius = 4
        bound = 6 * max(a) * 2 * (max(a) + 2)
        for f in s.facets:
            for v in itertools.product(range(-radius, radius + 1), repeat=s.n):
                if not s.group_member(v):
                    continue
                closed = profile_member(s, profiles[f], v)
                searched = sf_member(s, f, v, bound).is_member
                assert closed == searched, (f.label(), v)

    def test_reference_set_descriptions(self):
        # Worked case with blocks of degree (2, 2) on singleton factors: the
        # localized set of the first coordinate facet is the open halfplane
        # x11 > 0 together with the even points of the axis x11 = 0.
        s, profiles = model([2, 2], [1, 1])
        for v in itertools.product(range(-5, 6), repeat=2):
            expected = v[0] > 0 or (v[0] == 0 and v[1] % 2 == 0)
            assert profile_member(s, profiles[F11], v) == expected
            expected21 = v[1] > 0 or (v[1] == 0 and v[0] % 2 == 0)
            assert profile_member(s, profiles[F21], v) == expected21

    def test_mixed_degree_set_descriptions(self):
        # Degrees (1, 2) on singleton factors: S_{F11} as above and the
        # balance set is the halfplane x11 <= x21.
        s, profiles = model([1, 2], [1, 1])
        for v in itertools.product(range(-5, 6), repeat=2):
            assert profile_member(s, profiles[F11], v) == (
                v[0] > 0 or (v[0] == 0 and v[1] % 2 == 0)
            )
            assert profile_member(s, profiles[B1], v) == (v[0] <= v[1])

    def test_mixed_degree_triple_descriptions(self):
        # Degrees (1, 2) with b = (1, 2): the two coordinate facets of the
        # second block localize to the halfspaces x2j >= 0.
        s, profiles = model([1, 2], [1, 2])
        for v in itertools.product(range(-4, 5), repeat=3):
            assert profile_member(s, profiles[F21], v) == (v[1] >= 0)
            assert profile_member(s, profiles[F22], v) == (v[2] >= 0)
            assert profile_member(s, profiles[B1], v) == (v[0] <= v[1] + v[2])

    def test_even_lattice_descriptions(self):
        # Single block of degree two: inside the even lattice the localized
        # sets are plain halfspaces.
        s, profiles = model([2], [2])
        for v in itertools.product(range(-5, 6), repeat=2):
            if sum(v) % 2:
                continue
            assert profile_member(s, profiles[F11], v) == (v[0] >= 0)
            assert profile_member(s, profiles[F12], v) == (v[1] >= 0)

    def test_upward_closed_under_semigroup(self):
        s, profiles = model([1, 2], [1, 2])
        members = [
            v for v in itertools.product(range(3), repeat=3) if s.membership.member(v)
        ]
        for f in s.facets:
            for v in itertools.product(range(-3, 4), repeat=3):
                if not profile_member(s, profiles[f], v):
                    continue
                for g in members[:6]:
                    w = tuple(x + y for x, y in zip(v, g))
                    assert profile_member(s, profiles[f], w)

    def test_semigroup_contained_in_every_localized_set(self):
        s, profiles = model([2, 2], [1, 1])
        for v in itertools.product(range(7), repeat=2):
            if s.membership.member(v):
                for f in s.facets:
                    assert profile_member(s, profiles[f], v)


LADDER_TOPS = [([1, 2], [1, 14]), ([1, 1], [10, 10]), ([2], [40])]


class TestColumnarFacetData:
    """The facet sums filled in by `facet_list` and the thresholds of
    `build_profiles`, each read from one transposition of the generators,
    against the per-facet route they replaced."""

    @staticmethod
    def assert_matches_per_facet_route(s):
        assert s.facet_sums == per_facet_sums(s), s.params
        assert list(s.facet_sums) == list(s.facets)
        assert build_profiles(s) == per_facet_profiles(s), s.params

    def test_grid(self):
        grid = normalized_grid(3, 3, 3)
        assert len(grid) == 219
        for p in grid:
            self.assert_matches_per_facet_route(build_semigroup(p.a, p.b))

    @pytest.mark.parametrize("a,b", LADDER_TOPS)
    def test_ladder_tops(self, a, b):
        self.assert_matches_per_facet_route(build_semigroup(a, b))

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_small(self, pairs):
        a, b = [ai for ai, _ in pairs], [bi for _, bi in pairs]
        sizes = [math.comb(ai + bi, bi) for ai, bi in pairs]
        assume(math.prod(sizes) <= 3000)
        self.assert_matches_per_facet_route(build_semigroup(a, b))

    def test_extra_vanishing_coordinate_is_refused(self):
        # The closed form needs each facet sum to vanish exactly on the
        # facet's own coordinate (nowhere for a balance facet).
        s = build_semigroup([1, 2], [1, 2])
        y0 = s.facet_sums[F21]
        assert y0[1] == 0 and y0[2] > 0
        sums = dict(s.facet_sums)
        sums[F21] = (y0[0], 0, 0)
        with pytest.raises(RuntimeError, match="unexpected vanishing coordinates"):
            build_profiles(dataclasses.replace(s, facet_sums=sums))
        sums = dict(s.facet_sums)
        sums[B1] = (0,) + s.facet_sums[B1][1:]
        with pytest.raises(RuntimeError, match="unexpected vanishing coordinates"):
            build_profiles(dataclasses.replace(s, facet_sums=sums))


class TestDifferenceRegions:
    def test_facet_without_generators_has_no_region_form(self):
        # On a rank-one cone the origin facet carries no generator, S_F = S:
        # asking for its region is a caller error, not a budget overflow.
        s, profiles = model([1, 1], [1, 1])
        assert profiles[F11].mode == "semigroup"
        with pytest.raises(ValueError):
            hoatrung.difference_regions(s, profiles, [F11], [], 4)
        with pytest.raises(ValueError):
            hoatrung.difference_regions(s, profiles, [], [F11], 4)


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
                for g in s.generators
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
    def test_maximal_masks_from_distinct_incidence(self, a, b):
        # cm_verdict passes the distinct masks in first-seen order; the
        # maximal masks, and their order, are those of the whole table and
        # of the `any` scan the containment loop replaced.
        s = build_semigroup(a, b)
        distinct = dict.fromkeys(s.incidence)
        for jmask in range(1, (1 << len(s.facets)) - 1):
            maximal = cut_maximal(distinct, jmask)
            assert maximal == cut_maximal(s.incidence, jmask)
            assert maximal == any_scan_maximal_masks(distinct, jmask)

    @pytest.mark.parametrize(
        "a,b", [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [1, 2, 2, 2])]
    )
    def test_acyclicity_tiers_match_rational_homology(self, a, b):
        # Every maximal-mask family the orbit loop reaches: the cone, Euler
        # and F2-first tiers give the answer of exact homology over Q alone.
        s = build_semigroup(a, b)
        families = {
            tuple(sorted(cut_maximal(s.incidence, jmask))) for jmask in _orbit_masks(s)
        }
        homology_decided = 0
        for maximal in families:
            complex_ = AbstractComplex.from_faces(
                [tuple(t for t in range(len(s.facets)) if m >> t & 1) for m in maximal]
            )
            expected = not any(integer_homology_ranks(complex_.faces)[1:])
            assert _acyclicity_from_masks(list(maximal)) is expected, maximal
            coned = not maximal or functools.reduce(operator.and_, maximal)
            homology_decided += (
                not coned and complex_.euler_characteristic_reduced() == 0
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
    """The downward closure over int masks against `from_faces`, and its
    face cap."""

    @given(st.lists(st.integers(1, 255), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_from_faces(self, masks):
        expected = AbstractComplex.from_faces(mask_faces(masks))
        complex_ = _closure(masks)
        assert complex_ == expected
        assert complex_.is_acyclic() == expected.is_acyclic()
        acyclic = not any(integer_homology_ranks(expected.faces)[1:])
        assert _acyclicity_from_masks(masks) is acyclic

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
        complex_ = _closure(masks)
        assert complex_ == expected
        assert complex_.reduced_homology_ranks() == ranks
        assert _acyclicity_from_masks(masks) is not any(ranks[1:])

    def test_cap_counts_distinct_faces(self, monkeypatch):
        s = build_semigroup([1, 1, 1], [3, 3, 3])
        largest = max(
            (cut_maximal(s.incidence, jmask) for jmask in _orbit_masks(s)),
            key=lambda maximal: len(_closure(maximal).faces),
        )
        counts = [(masks, len(_closure(masks).faces)) for masks in (RP2_MASKS, largest)]
        for masks, count in counts:
            monkeypatch.setattr(hoatrung, "FACE_COUNT_CAP", count)
            assert _closure(masks) == AbstractComplex.from_faces(mask_faces(masks))
            monkeypatch.setattr(hoatrung, "FACE_COUNT_CAP", count - 1)
            assert _closure(masks) is None
        # Shared faces count once: the subset-count estimate is 9,216.
        assert count == 1764
        assert sum(1 << bin(m).count("1") for m in largest) == 9216

    @pytest.mark.parametrize("a,b", [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [2, 2, 2, 2])])
    def test_cap_decides_when_real_faces_fit(self, a, b, monkeypatch):
        monkeypatch.setattr(hoatrung, "FACE_COUNT_CAP", 2000)
        assert cm_verdict(build_semigroup(a, b)).status == "cm"

    def test_cap_below_real_faces_is_undetermined(self, monkeypatch):
        monkeypatch.setattr(hoatrung, "FACE_COUNT_CAP", 1000)
        v = cm_verdict(build_semigroup([1, 1, 1], [3, 3, 3]))
        assert v.status == "undetermined"
        assert v.reason.startswith("complex too large for J=")

    def test_full_evidence_past_cap_reads_cone(self, monkeypatch):
        # A pi_J past the cap has no ranks; it is acyclic when coned off
        # and has no answer otherwise, as on the orbit route.
        s = build_semigroup([1, 1, 1], [2, 2, 2])
        monkeypatch.setattr(hoatrung, "FACE_COUNT_CAP", 20)
        v = cm_verdict(s, full_evidence=True)
        assert v.status == "undetermined"
        past_cap = 0
        for record in v.j_records:
            jmask = sum(1 << s.facets.index(f) for f in record.j_facets)
            maximal = cut_maximal(s.incidence, jmask)
            assert record.acyclic is _acyclicity_from_masks(maximal)
            if record.homology_ranks is None:
                past_cap += 1
                assert record.acyclic is (True if _coned(maximal) else None)
        assert past_cap > 0

    @pytest.mark.parametrize(
        "a,b", [([1, 2], [1, 2]), ([1, 1, 1], [1, 2, 2]), ([2], [3]), ([1, 1], [2, 2])]
    )
    def test_mask_route_matches_facet_complex(self, a, b):
        # Vertex t of the mask route is the facet t of the facet order.
        s = build_semigroup(a, b)
        for mask in range(1, 1 << len(s.facets)):
            complex_ = _closure(cut_maximal(s.incidence, mask))
            relabeled = {frozenset(s.facets[t] for t in face) for face in complex_.faces}
            expected = build_pi_j(s, jset(s, mask))
            assert relabeled == {frozenset(face) for face in expected.faces}, (a, b, mask)


class TestMaskRoute:
    """The complex on int-mask levels against the vertex-tuple route it
    replaced: faces, reduced Euler characteristic, the F2 verdict and the
    ranks over Q from the signed boundary rows."""

    # Exact ranks over Q of the largest orbit complexes (up to 15,300 faces
    # on (1,1,1),(4,4,4)) take minutes; above this size only the faces, the
    # Euler characteristic and the F2 verdict are compared.
    RATIONAL_FACES = 300

    def check(self, maximal, rational_faces=math.inf):
        complex_ = AbstractComplex.from_maximal_masks(maximal)
        faces = tuple_closure(maximal)
        assert set(complex_.faces) == faces, maximal
        assert len(complex_.faces) == len(faces)
        assert complex_.euler_characteristic_reduced() == tuple_euler_reduced(faces)
        assert complex_._acyclic_over_f2() is tuple_acyclic_over_f2(faces), maximal
        if len(faces) <= rational_faces:
            assert complex_._rational_ranks() == integer_homology_ranks(faces), maximal

    @pytest.mark.parametrize(
        "a,b",
        [([1, 1, 1], [3, 3, 3]), ([1, 1, 1, 1], [2, 2, 2, 2]), ([1, 1, 1], [4, 4, 4])],
    )
    def test_every_orbit_family(self, a, b):
        s = build_semigroup(a, b)
        families = {tuple(cut_maximal(s.incidence, jmask)) for jmask in _orbit_masks(s)}
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
        assert _acyclicity_from_masks(RP2_MASKS) is True
        assert len(calls) == 1

    def test_orbit_loop_builds_no_vertex_tuple(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("vertex tuples built on the CM path")

        monkeypatch.setattr(AbstractComplex, "from_faces", classmethod(refuse))
        monkeypatch.setattr(AbstractComplex, "faces", property(refuse))
        assert cm_verdict(build_semigroup([1, 1, 1], [3, 3, 3])).status == "cm"


class TestOrbits:
    """The orbit representatives of the CM loop against a brute force over
    every block permutation."""

    CASES = [
        ([1, 1], [2, 2]),
        ([1, 1, 1], [1, 1, 1]),
        ([1, 1, 1], [1, 2, 2]),
        ([1, 1, 1, 1], [1, 1, 1, 1]),
        ([2, 2], [1, 1]),
        ([1, 2], [2, 3]),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_representatives_are_least_masks(self, a, b):
        s = build_semigroup(a, b)
        orbits = facet_orbits(s)
        assert _orbit_masks(s) == sorted(min(orbit) for orbit in orbits)
        assert set().union(*orbits) == set(range(1, (1 << len(s.facets)) - 1))

    @pytest.mark.parametrize("a,b", CASES)
    def test_gj_and_pi_j_constant_on_orbits(self, a, b):
        s, profiles = model(a, b)
        for orbit in facet_orbits(s):
            empty = {
                gj_empty(s, jset(s, mask), profiles=profiles).is_empty
                for mask in orbit
            }
            acyclic = {build_pi_j(s, jset(s, mask)).is_acyclic() for mask in orbit}
            assert len(empty) == 1 and len(acyclic) == 1, (a, b, sorted(orbit))

    def test_orbit_counts(self):
        assert len(_orbit_masks(build_semigroup([1, 1], [8, 8]))) == 43
        assert len(_orbit_masks(build_semigroup([1, 1, 1], [3, 3, 3]))) == 118

    def test_single_facet_has_no_subsets(self):
        assert _orbit_masks(build_semigroup([1, 1], [1, 1])) == []


# (a, b, box radius): G2, the Gorenstein (2),(2), and instances refuted by a
# tie or by a shifted-copy counterexample, at radii that keep the box scan
# cheap.
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
        s, profiles = model([1, 2], [1, 2])
        r = gj_empty(s, [F11, F21], profiles=profiles)
        assert not r.is_empty
        assert r.points

    def test_reference_points_belong(self):
        s, profiles = model([1, 2], [1, 2])

        def in_gj(x, J):
            ins = [f for f in s.facets if f not in J]
            return all(profile_member(s, profiles[f], x) for f in ins) and not any(
                profile_member(s, profiles[f], x) for f in J
            )

        assert in_gj((-1, -1, 5), {F11, F21})
        assert in_gj((1, -1, -1), {F21, F22, B1})
        assert in_gj((-1, -1, 5), {F11, F21})

    def test_empty_cases(self):
        s, profiles = model([1, 2], [1, 2])
        assert gj_empty(s, [F11, B1], profiles=profiles).is_empty
        assert gj_empty(s, [F21, F22], profiles=profiles).is_empty

    def test_rejects_improper_subsets(self):
        s, profiles = model([1, 2], [1, 2])
        with pytest.raises(ValueError):
            gj_empty(s, [])
        with pytest.raises(ValueError):
            gj_empty(s, list(s.facets))

    def test_engine_agrees_with_direct_scan(self):
        # Emptiness of G_J from the region engine against the box scan, for
        # every proper facet subset J; listed points must lie in G_J.
        for a, b, radius in ORACLE_CASES:
            s, profiles = model(a, b)
            sigs = box_signatures(s, profiles, radius)
            every = frozenset(s.facets)
            bound = default_bound(s.params, Window(radius))
            nf = len(s.facets)
            for jmask in range(1, (1 << nf) - 1):
                j = frozenset(f for t, f in enumerate(s.facets) if jmask >> t & 1)
                members = {v for v, sig in sigs.items() if sig == every - j}
                r = _gj_scan(s, profiles, sorted(j), Window(radius), bound, limit=4)
                assert r.is_empty == (not members), (a, b, [f.label() for f in j])
                assert set(r.points) <= members


class TestEngineAgainstBoxScan:
    """The block-sum region engine against a brute-force scan of the box."""

    @pytest.mark.parametrize("a,b,radius", ORACLE_CASES)
    def test_gf_extremal_and_sup(self, a, b, radius):
        s, profiles = model(a, b)
        gf = [v for v, sig in box_signatures(s, profiles, radius).items() if not sig]
        best, count, points, _ = _gf_extremal(s, profiles, radius)
        sup = _coordwise_sup(s, profiles, radius)
        if not gf:
            assert best is None and sup is None
            return
        want_best = max(sum(v) for v in gf)
        ties = [v for v in gf if sum(v) == want_best]
        assert best == want_best
        assert count == min(len(ties), 5)  # the engine caps the tie count
        assert set(points) <= set(ties)
        assert sup == tuple(max(v[p] for v in gf) for p in range(s.n))

    @pytest.mark.parametrize("a,b,radius", ORACLE_CASES)
    def test_shifted_copy_counterexample(self, a, b, radius):
        s, profiles = model(a, b)
        sigs = box_signatures(s, profiles, radius)
        gf = sorted((v for v, sig in sigs.items() if not sig), key=lambda v: -sum(v))
        bound = default_bound(s.params, Window(radius))
        safe = radius - 1
        box = [z for z in sigs if all(abs(c) <= safe for c in z)]
        for x0 in gf[:6]:
            bad = {z for z in box if (not sigs[z]) != s.membership.member(vsub(x0, z))}
            z = _shifted_counterexample(s, profiles, x0, safe, bound)
            assert (z is None) == (not bad), x0
            assert z is None or z in bad
        # The check only searches z in G_F, which is complete when x0 lies
        # in G_F; a semigroup point beyond the box lies outside G_F.
        deep = tuple((safe + 1) * sum(c) for c in zip(*s.generators))
        with pytest.raises(ValueError):
            _shifted_counterexample(s, profiles, deep, safe, bound)

    @pytest.mark.parametrize("a,b", [([1, 2], [1, 1]), ([2, 2], [1, 1])])
    def test_gj_points_cover_both_parities(self, a, b):
        # With one coordinate per block the engine lists G_J in lexicographic
        # order, so its listing is the first points of the box scan, odd and
        # even alike.
        s, profiles = model(a, b)
        window = default_window(s.params)
        sigs = box_signatures(s, profiles, window.radius)
        every = frozenset(s.facets)
        nf = len(s.facets)
        listed_odd = False
        for jmask in range(1, (1 << nf) - 1):
            j = [f for t, f in enumerate(s.facets) if jmask >> t & 1]
            members = sorted(v for v, sig in sigs.items() if sig == every - set(j))
            r = gj_empty(s, j, window=window, profiles=profiles)
            assert list(r.points) == members[:24]
            listed_odd |= any(sum(v) % 2 for v in r.points)
        assert listed_odd  # e.g. (-8, -7) on (1,2),(1,1)


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"
WORKLOAD_INSTANCES = [
    pytest.param(inst["a"], inst["b"], id=f"{name}-{inst['a']}-{inst['b']}")
    for name in ("grid", "segre")
    for inst in json.loads(WORKLOADS.read_text())[name]
]


@pytest.mark.parametrize("a,b", WORKLOAD_INSTANCES)
def test_max_total_matches_the_plain_walk_on_the_gf_regions(a, b):
    # The rising walk against the plain walk on the regions the Gorenstein
    # stage scans, at the window radius and at the doubled radius of its
    # second attempt.  A model with no facet or of rank one has no G_F region.
    s, profiles = model(a, b)
    if not s.facets or s.rank <= 1:
        return
    radius = default_window(s.params).radius
    for scan_radius in (radius, 2 * radius):
        for region in _gf_regions(s, profiles, scan_radius):
            want = plain_max_total(region, point_limit=4)
            assert region.max_total(point_limit=4) == want, scan_radius


class TestCMAndGorenstein:
    def test_cm_fixtures(self):
        assert cm_verdict(build_semigroup([2, 2], [1, 1])).is_cm
        assert not cm_verdict(build_semigroup([2, 2], [1, 2])).is_cm
        assert cm_verdict(build_semigroup([2], [3])).is_cm

    def test_short_circuit_matches_full_evidence(self):
        s = build_semigroup([1, 2], [1, 2])
        short = cm_verdict(s)
        full = cm_verdict(s, full_evidence=True)
        assert short.status == full.status == "cm"
        assert len(full.j_records) == 2 ** len(s.facets) - 2

    def test_orbit_loop_matches_full_loop_on_grid(self):
        # Where the J loop decides (S' = S holds), the loop over orbit
        # representatives stops at the first failing J of the full loop,
        # with the same reason and record.
        checked = 0
        for p in normalized_grid(3, 3, 3):
            s = build_semigroup(p.a, p.b)
            if not s.generators or len(s.facets) > 10:
                continue
            if not s_prime_equals_s(s).holds:
                continue
            short = cm_verdict(s)
            full = cm_verdict(s, full_evidence=True)
            assert len(full.j_records) == 2 ** len(s.facets) - 2
            assert (short.status, short.reason) == (full.status, full.reason), p
            failing = [
                r for r in full.j_records
                if r.acyclic is False and r.gj is not None and not r.gj.is_empty
            ]
            if failing:
                record = short.j_records[0]
                assert len(short.j_records) == 1
                assert record.j_facets == failing[0].j_facets
                assert record.acyclic is False
                assert record.gj == failing[0].gj
            else:
                assert short.status == "cm" and short.j_records == ()
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "a,b",
        [([1, 2], [1, 3]), ([1, 1], [2, 3]), ([1, 1, 1], [1, 2, 2]), ([1, 1, 1], [2, 2, 2])],
    )
    def test_orbit_loop_stops_where_full_loop_first_fails(self, a, b, monkeypatch):
        # On these instances every non-acyclic pi_J comes with an empty G_J,
        # so no J fails.  Reporting every G_J nonempty makes both loops stop
        # at the first non-acyclic pi_J, which is constant on orbits.
        def nonempty(s, profiles, j_facets, window, bound, limit):
            return GJResult(tuple(sorted(j_facets)), "nonempty", ((0,) * s.n,))

        monkeypatch.setattr(hoatrung, "_gj_scan", nonempty)
        s = build_semigroup(a, b)
        short = cm_verdict(s)
        full = cm_verdict(s, full_evidence=True)
        first = next(r for r in full.j_records if r.acyclic is False)
        assert short.status == full.status == "not-cm"
        assert short.reason == full.reason
        assert [r.j_facets for r in short.j_records] == [first.j_facets]

    @pytest.mark.parametrize("a,b", [([1, 1, 1], [2, 2, 2]), ([1, 2], [1, 3])])
    def test_evidence_homology_ranks_match_fresh(self, a, b):
        # Each record's ranks equal a fresh computation on its own pi_J.
        v = cm_verdict(build_semigroup(a, b), full_evidence=True)
        for r in v.j_records:
            fresh = AbstractComplex.from_faces(r.pi_maximal).reduced_homology_ranks()
            assert r.homology_ranks == tuple(fresh), r.j_facets

    @pytest.mark.parametrize("a,b", [([2, 2], [1, 2]), ([1, 1, 1], [1, 2, 2])])
    def test_evidence_pi_maximal_in_table_order(self, a, b):
        # The reported maximal faces come in the order the whole incidence
        # table gives, whatever masks the loop reads them from.
        s = build_semigroup(a, b)
        for r in cm_verdict(s, full_evidence=True).j_records:
            jmask = sum(1 << s.facets.index(f) for f in r.j_facets)
            expected = tuple(tuple(jset(s, m)) for m in cut_maximal(s.incidence, jmask))
            assert r.pi_maximal == expected, r.j_facets

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
        s, profiles = model([2], [2])
        g = gorenstein_witness(s, profiles=profiles)
        assert g.is_consistent
        assert _gf_member(s, profiles, g.x0)
        for gen in s.generators:
            shifted = tuple(x - y for x, y in zip(g.x0, gen))
            assert _gf_member(s, profiles, shifted)

    def test_subset_cap_yields_undetermined(self):
        s = build_semigroup([1, 2], [1, 2])
        v = cm_verdict(s, subset_cap=2)
        assert v.status == "undetermined"

    @pytest.mark.parametrize("a,b", [([1, 1, 1], [1, 2, 2]), ([1, 2], [1, 3])])
    def test_counterexample_rechecked_independently(self, a, b):
        # Bounded search on every facet for z in G_F, an explicit
        # decomposition for x0 - z in S: exactly one of them holds.
        s, profiles = model(a, b)
        g = gorenstein_witness(s, profiles=profiles)
        assert g.status == "refuted" and g.counterexample is not None
        z = g.counterexample
        bound = default_bound(s.params)
        in_gf = not any(sf_member(s, f, z, bound).is_member for f in s.facets)
        shifted = s.membership.decompose(vsub(g.x0, z))
        assert in_gf != (shifted is not None)
        if shifted is not None:
            assert tuple(map(sum, zip(*shifted))) == vsub(g.x0, z)

    def test_recheck_rejects_a_non_counterexample(self):
        # x0 itself lies in G_F and x0 - x0 = 0 lies in S.
        s, profiles = model([1, 2], [1, 1])
        x0 = (0, -1)
        with pytest.raises(RuntimeError):
            _verify_shifted_counterexample(s, x0, x0, default_bound(s.params))
