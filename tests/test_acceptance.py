"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic in the package is exact, so equality assertions carry zero
numerical tolerance; the hole searches and the G_J decisions read their
regions with no box, and every walk runs in a box proved exact, so no
verdict depends on a box.
"""

import itertools
import random
import time

import pytest

from oracles import (
    DenseLattice,
    cone_contains,
    dense_group,
    facet_generators,
    facet_oracle,
    generator_vectors,
    incidence_masks,
)
from svtangent.classify import classify, normalized_grid, sweep
from svtangent.hoatrung import s_prime_equals_s
from svtangent.membership import SemigroupMembership
from svtangent.model import (
    SVParams,
    build_semigroup,
    closed_form_group,
    maximal_masks,
)
from svtangent.simplicial import AbstractComplex, LabeledComplex
from svtangent.toricideal import (
    check_relation_strings,
    enumerate_binomials,
    parse_relation,
    verify_relation,
)
from svtangent.workedcases import run_worked_cases

GRID = normalized_grid(3, 3, 3)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "pass" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance criterion {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {detail}"


class TestCriterion1:
    def test_worked_example_suite(self):
        start = time.time()
        results = run_worked_cases()
        elapsed = time.time() - start
        failures = [
            f"case {i}: {c.label}"
            for i, r in enumerate(results, start=1)
            for c in r.checks
            if not c.passed
        ]
        report(
            "1 (worked examples)",
            not failures and elapsed < 10.0,
            f"{len(results)} cases, {elapsed:.1f}s" + (f"; {failures}" if failures else ""),
        )


class TestCriterion2:
    def test_classification_sweep(self):
        start = time.time()
        extra = [SVParams.of([1, 1, 1, 1], [1, 1, 1, 1])]
        reports, summary = sweep(3, 3, 3, extra=extra)
        elapsed = time.time() - start
        report(
            "2 (classification sweep)",
            summary.all_agree and elapsed < 300.0,
            f"{summary.total} instances, {summary.agreements} agree, "
            f"{summary.disagreements} disagree, {summary.undetermined} undetermined, "
            f"{elapsed:.1f}s",
        )


class TestCriterion3:
    def test_a_group_closed_forms(self):
        bad = []
        for p in GRID:
            generated = DenseLattice.from_generators(generator_vectors(p), p.n)
            expected = dense_group(p, closed_form_group(p))
            if generated != expected:
                bad.append(p)
        report("3a (group closed forms)", not bad, f"{len(GRID)} instances")

    def test_b_facet_list_matches_oracle(self):
        checked = 0
        bad = []
        for p in GRID:
            if p.n > 6:
                continue
            s = build_semigroup(p.a, p.b)
            derived = {frozenset(facet_generators(s, f)) for f in s.facets}
            geometric = {f.zero_generators for f in facet_oracle(s)}
            rays = tuple(maximal_masks(incidence_masks(p, s.facets)))
            checked += 1
            if derived != geometric or s.ray_masks != rays:
                bad.append(p)
        report("3b (facet list and ray masks vs oracles)", not bad, f"{checked} instances")

    def test_c_hole_witnesses_present(self):
        bad = []
        for p in GRID:
            s = build_semigroup(p.a, p.b)

            def is_hole(v):
                # In the cone, and not in the semigroup.
                return cone_contains(p, v) and not s.membership.member(v)

            for i in range(1, p.k + 1):
                ai = p.a[i - 1]
                for j in range(1, p.b[i - 1] + 1):
                    e = tuple(
                        1 if q == p.position(i, j) else 0 for q in range(p.n)
                    )
                    if ai > 2 and not is_hole(e):
                        bad.append((p, e, "degree>2 unit"))
                    if ai == 2 and not (p.k == 1 and ai == 2):
                        if not is_hole(e):
                            bad.append((p, e, "degree-2 unit"))
                        triple = tuple(
                            3 if q == p.position(i, j) else 0 for q in range(p.n)
                        )
                        if not is_hole(triple):
                            bad.append((p, triple, "odd multiple"))
        report("3c (hole witnesses appear)", not bad, f"{len(GRID)} instances")

    def test_d_high_degree_breaks_sprime(self):
        bad = []
        for p in GRID:
            if max(p.a) < 3 or (p.k == 1 and p.b[0] == 1):
                continue
            s = build_semigroup(p.a, p.b)
            r = s_prime_equals_s(s)
            if r.holds or r.witness is None or sum(r.witness) != 1:
                bad.append((p, r.status, r.witness))
        report("3d (degree >= 3 breaks S'=S with an axis witness)", not bad)


class TestCriterion4:
    def test_membership_vs_brute_force(self):
        checked = 0
        bad = []
        for p in GRID:
            if p.n > 4:
                continue
            s = build_semigroup(p.a, p.b)
            m = SemigroupMembership(s)
            # Closure inside the box [0,6]^n: partial sums of a member of the
            # box stay in the box, so this reaches every member of the box.
            reached = {(0,) * p.n}
            frontier = [(0,) * p.n]
            while frontier:
                nxt = []
                for v in frontier:
                    for g in generator_vectors(p):
                        w = tuple(x + y for x, y in zip(v, g))
                        if max(w) <= 6 and w not in reached:
                            reached.add(w)
                            nxt.append(w)
                frontier = nxt
            for v in itertools.product(range(7), repeat=p.n):
                checked += 1
                if m.member(v) != (v in reached):
                    bad.append((p, v))
        report(
            "4 (membership vs brute-force enumeration)",
            not bad,
            f"{checked} points checked across {sum(1 for p in GRID if p.n <= 4)} instances",
        )

    def test_homology_vs_euler_on_random_complexes(self):
        rng = random.Random(20250810)
        bad = 0
        for _ in range(200):
            maximal = [
                tuple(rng.sample(range(7), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            c = AbstractComplex.from_faces(maximal)
            ranks = c.reduced_homology_ranks()
            alternating = sum((-1) ** (q + 2) * r for q, r in enumerate(ranks, start=-1))
            if alternating != c.euler_characteristic_reduced():
                bad += 1
        report("4 (homology vs Euler characteristic)", bad == 0, "200 random complexes")

    def test_sphere_and_simplex_homology(self):
        ok = True
        for d in range(1, 5):
            verts = tuple(range(d + 2))
            sphere = AbstractComplex.from_faces(
                list(itertools.combinations(verts, d + 1))
            )
            ranks = sphere.reduced_homology_ranks()
            ok = ok and ranks[-1] == 1 and all(r == 0 for r in ranks[:-1])
            simplex = AbstractComplex.from_faces([verts])
            ok = ok and simplex.is_acyclic()
        report("4 (sphere and simplex homology)", ok)


class TestCriterion5:
    LEFT = LabeledComplex.from_maximal([("1", "2"), ("1", "4"), ("2", "3", "4")])
    RIGHT = LabeledComplex.from_maximal([("1", "2"), ("1", "3"), ("2", "3", "3")])

    def test_listed_relations_produced_and_verified(self):
        listed = [
            "x_{14}x_{23}-x_{12}x_{34}",
            "x_{234}^2-x_{23}x_{24}x_{34}",
            "x_{14}x_{234}^2-x_{12}x_{24}x_{34}^2",
        ]
        found = {
            (r.plus, r.minus) for r in enumerate_binomials(self.LEFT, 6)
        }
        ok = True
        for text in listed:
            r = parse_relation(self.LEFT, text)
            key = (r.plus, r.minus) if r.plus > r.minus else (r.minus, r.plus)
            ok = ok and key in found and verify_relation(self.LEFT, r)
        report("5 (listed relations at degree 6)", ok)

    def test_merged_complex_discrepancy_reported(self):
        inconsistent = [
            "x_{233}-x_{23}^2",
            "x_{13}x_{233}-x_{12}x_{23}x_{33}",
            "x_{13}^2x_{233}-x_{12}^2x_{33}^2",
        ]
        consistent = ["x_{233}^2-x_{23}^2x_{33}", "x_{13}x_{23}-x_{12}x_{33}"]
        got_bad = check_relation_strings(self.RIGHT, inconsistent)
        got_good = check_relation_strings(self.RIGHT, consistent)
        found = {(r.plus, r.minus) for r in enumerate_binomials(self.RIGHT, 6)}
        substitutes_present = True
        for text in consistent:
            r = parse_relation(self.RIGHT, text)
            key = (r.plus, r.minus) if r.plus > r.minus else (r.minus, r.plus)
            substitutes_present = substitutes_present and key in found
        ok = (
            all(v is False for v in got_bad.values())
            and all(v is True for v in got_good.values())
            and substitutes_present
        )
        detail = "; ".join(
            f"{t}: {'rejected' if not v else 'ACCEPTED'}" for t, v in got_bad.items()
        )
        report("5 (merged-complex discrepancy)", ok, detail)


class TestCriterion6:
    @pytest.mark.parametrize(
        "label,a,b,cap",
        [
            ("CM3 at b2=5", [1, 2], [1, 5], 14),
            ("CM3 at b2=8", [1, 2], [1, 8], 14),
            ("CM4 at b2=5", [1, 1], [2, 5], 14),
            ("CM4 at b2=8", [1, 1], [2, 8], 14),
            ("G3 at b=(5,5)", [1, 1], [5, 5], 14),
            ("G3 at b=(8,8)", [1, 1], [8, 8], 16),
            ("CM6 at b=5", [2], [5], 14),
            ("G5 at b=8", [2], [8], 14),
        ],
    )
    def test_spot_checks(self, label, a, b, cap):
        start = time.time()
        r = classify(SVParams.of(a, b), subset_cap=cap)
        elapsed = time.time() - start
        report(
            f"6 ({label})",
            r.agreement and not r.has_undetermined and elapsed < 60.0,
            f"verdicts {'/'.join(r.verdict_quadruple())}, {elapsed:.1f}s",
        )

    @pytest.mark.parametrize(
        "label,a,b,cap",
        [
            ("G3 at b=(10,10)", [1, 1], [10, 10], 20),
            ("CM3 at b2=14", [1, 2], [1, 14], 16),
        ],
    )
    def test_ladder_tops(self, label, a, b, cap):
        # The tops of the scaling ladder, whose 2^20 and 2^16 facet subsets
        # fall to 64 and 58 orbits under the block symmetries.
        self.test_spot_checks(label, a, b, cap)

    def test_segre_beyond_the_grid(self):
        # CM1 at (1,1,1),(5,5,5): the cone is normal, so `classify` decides
        # it Cohen-Macaulay by Hochster and Gorenstein by Stanley's
        # criterion; the facet criterion does not run and no complex is
        # built.
        start = time.time()
        r = classify(SVParams.of([1, 1, 1], [5, 5, 5]), subset_cap=18)
        elapsed = time.time() - start
        normal, cm, gorenstein = r.verdict_quadruple()[1:]
        report(
            "6 (Segre (1,1,1),(5,5,5))",
            (normal, cm, gorenstein) == ("yes", "yes", "no") and r.agreement,
            f"verdicts {'/'.join(r.verdict_quadruple())}, {elapsed:.1f}s",
        )
