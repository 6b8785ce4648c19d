"""The route that decides normal cones by theorem, against the slow routes
it replaced.

Normality is exact: `is_normal` reads the first hole in closed form, with
no region and no box (`find_holes`).  On a normal
cone Cohen-Macaulay is Hochster's theorem and Gorenstein one region
query (`stanley_gorenstein`).  The oracles are the hole search of a wider
box, a brute-force Hilbert basis, the Trung-Hoa loop (`cm_verdict`), the
G_F scan (`gorenstein_witness`), the dense solve of Stanley's system over
the group basis (`dense_stanley_gorenstein`) and a rational solve on
`fractions.Fraction`.
"""

import dataclasses
import importlib
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    box,
    brute_force_hilbert_basis,
    class_sf_scan,
    composition_h_vector,
    dense_stanley_gorenstein,
    dot,
    facet_sf_scan,
    facet_value_rows,
    fraction_solve,
    hole_cap,
    is_sum_of_generators,
    literal_sf_member,
    multiset_compositions,
    oracle_group,
    primitive_pair_rays,
    smith_normal_form,
    snf_is_smooth,
    solve_unique,
    walk_h_vector,
    walk_hilbert_counts,
)
from svtangent import hoatrung, membership, toricideal
from svtangent.classify import NO, YES, classify, normalized_grid
from svtangent.hoatrung import (
    _gf_top_region,
    _h_vector,
    _hilbert_counts,
    cm_verdict,
    gorenstein_witness,
    profile_member,
    sf_member,
    stanley_gorenstein,
)
from svtangent.lattice import integer_rank
from svtangent.membership import (
    SemigroupMembership,
    _sum_of_shapes,
    find_holes,
    is_normal,
    is_smooth,
    ray_span_index,
)
from svtangent.model import (
    SVParams,
    build_semigroup,
    build_semigroup_from_params,
    facet_value,
)
from svtangent.toricideal import _exact_compositions

# The package exports the function `classify` under the module's name.
classify_module = importlib.import_module("svtangent.classify")

WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text()
)
INSTANCES = [
    (name, SVParams.of(i["a"], i["b"]), i["subset_cap"])
    for name, items in WORKLOADS.items()
    for i in items
]


def instance_id(value):
    if isinstance(value, SVParams):
        return f"{list(value.a)}-{list(value.b)}"
    return str(value)


# The workload instances with facets, split by the exact normality verdict.
NORMAL, NOT_NORMAL = [], []
for _instance in INSTANCES:
    _s = build_semigroup_from_params(_instance[1])
    if _s.facets:
        (NORMAL if is_normal(_s).is_normal else NOT_NORMAL).append(_instance)


def sigma_rows(s):
    """The facet functionals on the group basis, each divided by the gcd of
    its values there: Stanley's sigma_F in basis coordinates."""
    rows, basis = [], oracle_group(s).basis
    for f in s.facets:
        values = [facet_value(s.params, f, v) for v in basis]
        g = math.gcd(*values)
        rows.append([v // g for v in values])
    return rows


def test_workload_counts():
    assert len(INSTANCES) == 231
    assert (len(NORMAL), len(NOT_NORMAL)) == (29, 199)


class TestSolveUnique:
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                    min_size=r,
                    max_size=r + 3,
                ),
                st.lists(st.integers(-3, 3), min_size=r + 3, max_size=r + 3),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_solve(self, system):
        rows, rhs = system
        rhs = rhs[: len(rows)]
        assume(integer_rank(rows, len(rows[0])) == len(rows[0]))
        got = solve_unique(rows, rhs)
        want = fraction_solve(rows, rhs)
        if want is None:
            y = got.left_kernel
            assert got.numerators is None and y is not None
            assert not any(dot(y, column) for column in zip(*rows))
            assert dot(y, rhs) != 0
        else:
            assert got.left_kernel is None and got.denominator > 0
            assert [w * got.denominator for w in want] == list(got.numerators)
            assert math.gcd(got.denominator, *got.numerators) == 1

    def test_dependent_columns_are_refused(self):
        with pytest.raises(ValueError, match="dependent"):
            solve_unique([[1, 2], [2, 4], [3, 6]], [1, 1, 1])


class TestExactNormality:
    @pytest.mark.parametrize("name,p,cap", NORMAL + NOT_NORMAL, ids=instance_id)
    def test_agrees_with_a_twice_wider_box_search(self, name, p, cap):
        # The search boxed to twice both the test box 2k - 1 of
        # `oracles.hole_cap` and the box of radius 2(max a + 2), with no
        # total cap: a hole there iff not normal.
        s = build_semigroup_from_params(p)
        radius = 2 * max(2 * (max(p.a) + 2), hole_cap(s))
        assert (find_holes(s, narrow=box(radius)) is None) == is_normal(s).is_normal

    @pytest.mark.parametrize("name,p,cap", NOT_NORMAL, ids=instance_id)
    def test_first_hole_is_the_wider_box_searchs(self, name, p, cap):
        # The box of radius 2(max a + 2), with no total cap.
        s = build_semigroup_from_params(p)
        assert is_normal(s).witness == find_holes(s, narrow=box(2 * (max(p.a) + 2)))

    def test_brute_force_hilbert_basis(self):
        # Normal iff every Hilbert basis element of the normalization is a
        # sum of generators; a hole the search reports is no such sum.
        checked = 0
        for p in normalized_grid(3, 3, 3) + normalized_grid(4, 2, 1):
            if p.n > 5:
                continue
            s = build_semigroup_from_params(p)
            if not s.facets:
                continue
            memo: dict = {}
            missing = [
                h for h in brute_force_hilbert_basis(s) if not is_sum_of_generators(s, h, memo)
            ]
            verdict = is_normal(s)
            assert verdict.is_normal == (not missing), p
            if missing:
                assert not is_sum_of_generators(s, verdict.witness, memo)
                assert sum(verdict.witness) <= min(map(sum, missing)) <= 2 * p.k - 1
            checked += 1
        assert checked == 122

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_one_total_lower_misses_a_hole(self, b):
        # On (3),(b) every hole has total at least 1 = 2k - 1: a search
        # capped at 2k - 3 finds none, so the test box of `oracles.hole_cap`
        # is the proof's bound and no lower.
        s = build_semigroup([3], [b])
        verdict = is_normal(s)
        assert verdict.status == "not-normal" and sum(verdict.witness) == 1
        assert hole_cap(s) == 2 * s.params.k - 1
        lower = 2 * s.params.k - 3

        def capped(region):
            region.total_hi = lower

        assert find_holes(s, narrow=box(1, capped)) is None


class TestTheoremRoute:
    @pytest.mark.parametrize("name,p,cap", NORMAL, ids=instance_id)
    def test_normal_instances_match_the_facet_criterion(self, name, p, cap):
        # Hochster and Stanley against the Trung-Hoa loop and the G_F scan,
        # which still run alone on a fresh semigroup: the same verdicts, and
        # Stanley's -x0 is the G_F scan's witness.
        report = classify(p, subset_cap=cap)
        assert report.cohen_macaulay.status == YES
        assert report.cohen_macaulay.detail == "normal, hence Cohen-Macaulay (Hochster)"
        s = build_semigroup_from_params(p)
        assert cm_verdict(s, subset_cap=cap).status == "cm"
        gw = gorenstein_witness(s)
        assert gw.status in ("consistent", "refuted")
        assert report.gorenstein.status == (YES if gw.is_consistent else NO)
        assert report.gorenstein.witness == (gw.x0 if gw.is_consistent else None)
        assert report.evidence["gorenstein"]["route"] == "Stanley"

    def test_certificates_check_by_substitution(self):
        # Every Stanley answer on the workloads, re-checked from the report
        # alone against sigma_F recomputed here: a witness by substitution
        # and the literal S_F route, an empty region by a rational solve of the
        # system with no integral solution.
        kinds = {"witness": 0, "empty_region": 0}
        for name, p, cap in NORMAL:
            report = classify(p, subset_cap=cap)
            evidence = report.evidence["gorenstein"]
            assert evidence["x0"] == (
                None if report.gorenstein.witness is None else list(report.gorenstein.witness)
            )
            s = build_semigroup_from_params(p)
            rows = sigma_rows(s)
            if report.gorenstein.status == YES:
                x0 = tuple(-v for v in report.gorenstein.witness)
                coords = oracle_group(s).coordinates_of(x0)
                assert all(dot(row, coords) == 1 for row in rows)
                assert not any(sf_member(s, f, report.gorenstein.witness).is_member
                               for f in s.facets)
                kinds["witness"] += 1
            else:
                assert "is empty" in report.gorenstein.detail
                solution = fraction_solve(rows, [1] * len(rows))
                assert solution is None or any(c.denominator != 1 for c in solution)
                kinds["empty_region"] += 1
        assert kinds == {"witness": 11, "empty_region": 18}

    def test_dropping_the_gcd_normalization_flips_a_verdict(self, monkeypatch):
        # On (2),(1) the one facet functional takes the value 2 on the group
        # 2Z; left undivided, sigma_F(x) = 1 would have no integral solution.
        p = SVParams.of([2], [1])
        assert classify(p).gorenstein.status == YES
        build = classify_module.build_semigroup_from_params

        def undivided(params):
            s = build(params)
            classes = tuple(c._replace(gcd=1) for c in s.facet_classes)
            return dataclasses.replace(s, facet_classes=classes)

        monkeypatch.setattr(classify_module, "build_semigroup_from_params", undivided)
        assert classify(p).gorenstein.status == NO

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1] * 6, [3] * 6),
            ([1, 1, 1], [6, 6, 6]),
            ([1, 1], [1, 40]),
            ([1, 1], [40, 40]),
            ([2], [80]),
            ([2], [200]),
            ([1, 1], [1, 100]),
            ([1, 1, 1], [20, 20, 20]),
        ],
        ids=lambda v: ",".join(map(str, v)),
    )
    def test_frontier_decided_at_the_default_settings(self, a, b):
        # Each was undetermined on some verdict when the facet criterion
        # decided normal cones (face-count cap, subset cap or box radius).
        report = classify(SVParams.of(a, b))
        assert not report.has_undetermined
        assert report.agreement

    def test_evidence_keeps_the_facet_subsets(self, monkeypatch):
        # The facet subsets are listed where the facet criterion decides.  A
        # normal cone is decided by theorem, so its evidence is that route's
        # and its report the plain one.
        other = classify(SVParams.of([1, 2], [1, 2]), full_evidence=True)
        assert other.normal.status == NO
        assert other.evidence["j_records"]
        assert other.evidence["s_prime"] == {"status": "holds", "witness": None}
        p = SVParams.of([1, 1, 1], [1, 2, 2])
        plain = classify(p).to_dict()

        def refuse(*args, **kwargs):
            raise AssertionError("facet criterion run on a normal cone")

        for name in ("cm_verdict", "gorenstein_witness", "j_records"):
            monkeypatch.setattr(classify_module, name, refuse)
        assert classify(p, full_evidence=True).to_dict() == plain

    # Normal grid cones that Stanley's criterion refutes.
    @pytest.mark.parametrize("b", [[1, 2, 2], [1, 3, 3], [2, 2, 2], [2, 2, 3], [2, 3, 3], [3, 3, 3]])
    def test_evidence_keeps_stanleys_answer(self, b):
        # Stanley's "no" is exact and is what `--evidence` reports.
        p = SVParams.of([1, 1, 1], b)
        report = classify(p, full_evidence=True)
        assert report.gorenstein.status == NO
        assert "the region of -x0" in report.gorenstein.detail
        assert report.evidence["gorenstein"] == {"route": "Stanley", "status": "refuted", "x0": None}
        assert report.to_dict() == classify(p).to_dict()

    def test_stanley_reports_its_recheck_multiple(self):
        # On (1,1,1),(1,1,1) each balance facet F_i has y0 with block sums
        # c = 2 e_i + (the other two blocks at 1): the two moving blocks
        # reach a_l = 1, and their balances sum(a) = 3, at N = 2, so N* = 3.
        s = build_semigroup([1, 1, 1], [1, 1, 1])
        st = stanley_gorenstein(s)
        assert st.is_gorenstein and st.witness == (-1, -1, -1)
        assert st.bound == 3
        # On (1,1),(5,5) every facet is a coordinate facet at which the
        # witness is -1, so no multiple can work and no call runs.
        s = build_semigroup([1, 1], [5, 5])
        st = stanley_gorenstein(s)
        assert st.is_gorenstein and st.witness == (-1,) * 10
        assert st.bound == 0

    def test_rows_match_the_facet_value_rows(self):
        # The coefficient-column rows of the dense oracle's system against
        # one `facet_value` per (facet, basis row), on every workload
        # instance.
        for name, p, cap in INSTANCES:
            s = build_semigroup_from_params(p)
            basis = oracle_group(s).basis
            values = [[facet_value(p, f, v) for v in basis] for f in s.facets]
            assert facet_value_rows(s) == values, (name, p)


def assert_matches_the_dense_solve(s):
    """The region route against the dense solve over the group basis: the
    same Gorenstein answer, and the same witness -x0 when it holds."""
    got = stanley_gorenstein(s)
    witness = dense_stanley_gorenstein(s)
    assert got.is_gorenstein == (witness is not None), s.params
    assert got.witness == witness, s.params
    return got.is_gorenstein


class TestStanleyRegionRoute:
    @pytest.mark.parametrize("name,p,cap", NORMAL, ids=instance_id)
    def test_normal_workloads(self, name, p, cap):
        assert_matches_the_dense_solve(build_semigroup_from_params(p))

    def test_rank_one_ladder(self):
        # (2),(b): the even group, one coordinate facet per position.
        answers = set()
        for b in range(1, 201):
            s = build_semigroup([2], [b])
            assert is_normal(s).is_normal
            answers.add(assert_matches_the_dense_solve(s))
        assert answers == {True, False}

    def test_two_block_segre_ladder(self):
        # (1,1),(b,c): the balanced group, with a free coordinate at b = 1.
        answers = set()
        for b in range(1, 41):
            for c in range(b, 41):
                s = build_semigroup([1, 1], [b, c])
                assert is_normal(s).is_normal
                answers.add(assert_matches_the_dense_solve(s))
        assert answers == {True, False}

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_segre_blocks(self, b):
        # (1)^k,(b): balance facets, and free coordinates in blocks of size 1.
        s = build_semigroup([1] * len(b), b)
        assume(s.facets and is_normal(s).is_normal)
        assert_matches_the_dense_solve(s)


# Smoothness families beyond the workloads: the even group's rays span an
# index 2^(b-1); S1 is smooth; (1)^k is smooth up to k = 2.
SMOOTHNESS_FAMILIES = (
    [SVParams.of([2], [b]) for b in range(1, 17)]
    + [SVParams.of([1, 1], [1, b]) for b in range(1, 21)]
    + [SVParams.of([1] * k, [1] * k) for k in range(1, 8)]
)


class TestSmoothnessRoute:
    @pytest.mark.parametrize("family", sorted(WORKLOADS) + ["beyond"])
    def test_matches_the_snf_route(self, family):
        # The ray count and the index read off the ray pairs against every
        # ray, the count and the Smith invariants: the same status, and the
        # index, by the pairs and by one echelon pass over the dense rays, is
        # the invariants' product.
        params = (
            SMOOTHNESS_FAMILIES if family == "beyond"
            else [p for name, p, _ in INSTANCES if name == family]
        )
        statuses = set()
        for p in params:
            s = build_semigroup_from_params(p)
            new, old = is_smooth(s), snf_is_smooth(s)
            assert new.status == old.status, p
            if s.facets and len(s.ray_masks) == s.rank:
                rays, group = primitive_pair_rays(s), oracle_group(s)
                coords = [group.coordinates_of(r) for r in rays]
                index = math.prod(smith_normal_form(coords))
                assert ray_span_index(s) == group.index_of(rays) == index, p
            statuses.add(new.status)
        if family in ("grid", "beyond"):
            assert statuses == {"smooth", "not-smooth"}


def assert_exact_recheck(s, x):
    """The one call per facet class of `_sf_scan` at x against the per-facet
    route it replaced (`class_sf_scan`), and each facet's answer there
    against the literal scan of every multiple up to 2N* + 8, whose least
    working multiple is at most N*, and against the closed form
    `profile_member`; `sf_member`'s witness is N* * y0.  Returns the
    per-facet scan."""
    assert hoatrung._sf_scan(s, x, s.facet_classes) == class_sf_scan(s, x), (s.params, x)
    scan = facet_sf_scan(s, x, s.facets)
    for f, (mult, member) in zip(s.facets, scan):
        least = literal_sf_member(s, f, x, 2 * mult + 8)
        assert member == (least is not None) == profile_member(s, f, x), (s.params, x, f)
        assert least is None or least <= mult, (s.params, x, f)
        got = sf_member(s, f, x)
        assert got.witness == (tuple(mult * v for v in s.facet_sum(f)) if member else None)
    return scan


class TestExactRecheck:
    def test_matches_the_literal_scan_on_every_witness(self, monkeypatch):
        # Every point the re-check sees while the workloads are classified.
        calls = []
        recheck = hoatrung._sf_facets

        def recording(s, x):
            got = recheck(s, x)
            calls.append((s, tuple(x), got))
            return got

        monkeypatch.setattr(hoatrung, "_sf_facets", recording)
        for name, p, cap in INSTANCES:
            classify(p, subset_cap=cap)
        for s, x, got in calls:
            scan = assert_exact_recheck(s, x)
            inside = sum(1 << t for t, (_, member) in enumerate(scan) if member)
            assert got == (inside, max(mult for mult, _ in scan)), (s.params, x)
        # Both answers occur: points in no S_F and points in some.
        assert len(calls) > 100
        assert {inside.bit_count() for *_, (inside, _) in calls} > {0}
        assert max(mult for *_, (_, mult) in calls) > 0

    @pytest.mark.parametrize(
        "a,b",
        [([1, 2], [1, 1]), ([2], [2]), ([1, 1], [2, 2]), ([1, 1, 1], [1, 1, 1]), ([3], [1]),
         ([1, 1, 2], [2, 2, 1])],
    )
    def test_each_facet_class_makes_one_membership_call(self, monkeypatch, a, b):
        # One `sums_member` call per facet class where some multiple can
        # work (N* > 0), shared by its members and by every class of its
        # kind whose block has its type, block sum and block minimum; none
        # where the point stays negative.  On a point with no negative
        # coordinate that is one call per class of each kind, type and
        # block sum, at most one per class.
        s = build_semigroup(a, b)
        count = [0]
        decide = SemigroupMembership.sums_member

        def counting(self, sums):
            count[0] += 1
            return decide(self, sums)

        monkeypatch.setattr(SemigroupMembership, "sums_member", counting)
        points = [x for x in itertools.product(range(-2, 3), repeat=s.n) if s.group_member(x)]
        p, starts = s.params, s.params.block_starts
        for x in points:
            count[0] = 0
            scan = hoatrung._sf_scan(s, x, s.facet_classes)
            sums, minima = p.block_sums(x), [min(x[u:v]) for u, v in zip(starts, starts[1:])]
            keys = {
                (c.kind, p.a[c.block - 1], p.b[c.block - 1], sums[c.block - 1], minima[c.block - 1])
                for c, (_, mult) in zip(s.facet_classes, scan) if mult
            }
            assert count[0] == len(keys) <= len(s.facet_classes), x
            assert scan == class_sf_scan(s, x), x


def split_points(s, radius=2):
    """The group points of the box [-radius, radius]^n whose coordinates
    are negative on some, but not all, members of a coordinate class."""
    starts = s.params.block_starts
    for x in itertools.product(range(-radius, radius + 1), repeat=s.n):
        blocks = [x[starts[c.block - 1] : starts[c.block]] for c in s.facet_classes if c.kind == "coord"]
        if any(min(v) < 0 <= max(v) for v in blocks) and s.group_member(x):
            yield x


class TestPerClassRecheck:
    """The S_F re-check asked once per facet class against the per-facet
    route it replaced (`facet_sf_scan`), where a class splits and on every
    witness of `sweep(4, 4, 4)`."""

    @pytest.mark.parametrize(
        "a,b",
        [([2], [3]), ([1, 2], [1, 2]), ([1, 2], [2, 2]), ([1, 1], [2, 3]), ([1, 1, 1], [2, 2, 1]),
         ([2, 2], [2, 1]), ([1, 3], [2, 2])],
        ids=str,
    )
    def test_split_classes_match_the_per_facet_route(self, a, b):
        s = build_semigroup(a, b)
        points = list(split_points(s))
        assert points
        for x in points:
            scan = hoatrung._sf_scan(s, x, s.facet_classes)
            assert scan == class_sf_scan(s, x), x
            for c, answer in zip(s.facet_classes, scan):
                assert hoatrung._sf_scan(s, x, (c,)) == [answer], (x, c.facets)
            for f, (mult, member) in zip(s.facets, facet_sf_scan(s, x, s.facets)):
                got = sf_member(s, f, x)
                assert got.is_member == member == profile_member(s, f, x), (x, f)
                if f.kind == "coord" and x[s.params.position(f.i, f.j)] < 0:
                    assert (mult, member) == (0, False), (x, f)
        # Both answers occur on members of one split class.
        assert any(
            0 < members != c.mask
            for x in points
            for c, (members, _) in zip(s.facet_classes, hoatrung._sf_scan(s, x, s.facet_classes))
        )

    def test_every_sweep_444_witness_matches_the_per_facet_route(self, monkeypatch):
        # Every point the S' = S, G_J, Gorenstein and Stanley re-checks see
        # on `sweep(4, 4, 4)`.
        calls = []
        recheck = hoatrung._sf_facets

        def recording(s, x):
            calls.append((s, tuple(x)))
            return recheck(s, x)

        monkeypatch.setattr(hoatrung, "_sf_facets", recording)
        classify_module.sweep(4, 4, 4)
        for s, x in calls:
            assert hoatrung._sf_scan(s, x, s.facet_classes) == class_sf_scan(s, x), (s.params, x)
        assert len(calls) > 1000


def _h_vector_degree(p):
    """a + 2d, the degree `gorenstein_witness` counts the h-vector to, or
    None where no cap bounds the top of G_F."""
    s = build_semigroup_from_params(p)
    top = _gf_top_region(s)
    return None if top is None else top.total_hi + 2 * s.rank


class TestHVectorWalk:
    """The tuples of each total from `toricideal._exact_compositions` against
    the multisets of `combinations_with_replacement`, and the closed-form
    count of the Hilbert function, with h by differencing, against the walk
    it replaced, one membership question per tuple (`walk_h_vector`), and
    against the count over the multisets with one `math.comb` per factor
    (`composition_h_vector`)."""

    @pytest.mark.parametrize("parts", range(0, 6))
    def test_compositions_match_the_multisets(self, parts):
        # No vector of nonnegative parts has a negative sum.
        assert list(_exact_compositions(-1, parts)) == []
        for total in range(9):
            walked = list(_exact_compositions(total, parts))
            assert walked == list(multiset_compositions(total, parts)), (total, parts)

    def test_non_normal_cohen_macaulay_workloads(self):
        checked = 0
        for _, p, cap in NOT_NORMAL:
            s = build_semigroup_from_params(p)
            if cm_verdict(s, subset_cap=cap).status != "cm":
                continue
            degree = _h_vector_degree(p)
            assert _h_vector(s, degree) == composition_h_vector(s, degree), p
            assert _h_vector(s, degree) == walk_h_vector(s, degree), p
            checked += 1
        assert checked == 7

    def test_non_normal_cohen_macaulay_sweep_444(self):
        # Every non-normal Cohen-Macaulay instance of sweep(4, 4, 4): seven,
        # each with D = a + 2d at most 60.
        checked = 0
        for p in normalized_grid(4, 4, 4):
            s = build_semigroup_from_params(p)
            if not s.facets or is_normal(s).is_normal or cm_verdict(s).status != "cm":
                continue
            degree = _h_vector_degree(p)
            if degree <= 60:
                assert _h_vector(s, degree) == walk_h_vector(s, degree), p
                checked += 1
        assert checked == 7

    @pytest.mark.parametrize("p", normalized_grid(3, 3, 3), ids=instance_id)
    def test_counts_match_the_walk_on_the_grid(self, p):
        s = build_semigroup_from_params(p)
        assert _hilbert_counts(s, 20) == walk_hilbert_counts(s, 20)

    def test_no_membership_question_and_no_walk(self, monkeypatch):
        # The only knapsack calls are the re-checks of the hole terms: on
        # (1,2),(1,b) one per odd m up to D + 1 on block 2, of degree 2.
        def refuse(*_):
            raise AssertionError("per-tuple route taken")

        monkeypatch.setattr(SemigroupMembership, "sums_member", refuse)
        monkeypatch.setattr(toricideal, "_exact_compositions", refuse)
        knapsack, asked = membership._sum_of_shapes, []

        def counted(s, sums, memo=None):
            asked.append(sums)
            return knapsack(s, sums, memo)

        monkeypatch.setattr(membership, "_sum_of_shapes", counted)
        for b in (1, 8, 40):
            s = build_semigroup([1, 2], [1, b])
            degree = _h_vector_degree(s.params)
            asked.clear()
            assert _h_vector(s, degree) is not None
            assert asked == [(0, m) for m in range(1, degree + 2, 2)]

    @pytest.mark.parametrize(
        "p",
        [SVParams.of([1, 2], [1, b]) for b in range(1, 61)]
        + [SVParams.of([a], [1]) for a in range(1, 13)],
        ids=instance_id,
    )
    def test_ladders(self, p):
        s = build_semigroup_from_params(p)
        degree = _h_vector_degree(p)
        if degree is not None:
            assert _h_vector(s, degree) == composition_h_vector(s, degree)
            assert _h_vector(s, degree) == walk_h_vector(s, degree)
        assert _h_vector(s, 9) == composition_h_vector(s, 9)


class TestShiftedCopyRecheck:
    @pytest.mark.parametrize(
        "a,b", [([1, 2], [1, 1]), ([2, 2], [1, 1]), ([3], [1]), ([1, 1, 2], [1, 1, 1])]
    )
    def test_sum_of_shapes_is_membership(self, a, b):
        s = build_semigroup(a, b)
        for sums in itertools.product(range(7), repeat=s.params.k):
            assert _sum_of_shapes(s, sums) == s.membership.sums_member(sums), sums

    def test_a_wrong_engine_answer_fails_the_recheck(self, monkeypatch):
        # An engine that takes every nonzero point for a nonmember would count
        # S_m = 0 for m > 0; the knapsack re-check of the walk does not.
        s = build_semigroup([1, 2], [1, 1])
        monkeypatch.setattr(SemigroupMembership, "sums_member", lambda self, sums: not any(sums))
        with pytest.raises(RuntimeError, match="knapsack"):
            walk_h_vector(s, 3)

    def test_a_hole_term_the_knapsack_refutes_raises(self, monkeypatch):
        # A closed-form hole that the knapsack writes as a sum of generators
        # stops the count.
        s = build_semigroup([1, 2], [1, 1])
        monkeypatch.setattr(membership, "_sum_of_shapes", lambda s, sums, memo=None: True)
        with pytest.raises(RuntimeError, match="are no hole"):
            _h_vector(s, 3)


def into_group(s, x):
    """x moved into the group of s by its last coordinate: the total made
    even, the block sums made equal, or every coordinate 0."""
    form, x = s.group_form, list(x)
    if form.zero:
        return (0,) * s.n
    if form.pinned:
        x[-1] += s.params.block_sum(x, 1) - s.params.block_sum(x, 2)
    elif form.parity is not None:
        x[-1] += sum(x) % 2
    return tuple(x)


class TestSfMemberExact:
    @given(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_literal_scan_on_hypothesis_points(self, pairs, data):
        # Group points with negative coordinates in several blocks.
        s = build_semigroup(*zip(*pairs))
        x = data.draw(st.lists(st.integers(-6, 6), min_size=s.n, max_size=s.n))
        assert_exact_recheck(s, into_group(s, x))

    @pytest.mark.parametrize(
        "a,b", [([1, 2], [1, 1]), ([2], [2]), ([1, 1], [2, 2]), ([1, 1, 1], [1, 1, 1]), ([3], [1])]
    )
    def test_matches_the_literal_scan(self, a, b):
        s = build_semigroup(a, b)
        for x in itertools.product(range(-4, 4), repeat=s.n):
            if s.group_member(x):
                assert_exact_recheck(s, x)
