"""Seven reference cases with every intermediate artifact checked.

Each case runs the full pipeline on one small parameter triple and asserts
the facet list, the verdict triple (normal, Cohen-Macaulay, Gorenstein),
and the case-specific artifacts: localized-set witnesses, shift witnesses,
refutation evidence, hole sets, and for the fourth case the complete table
of facet subsets with their acyclicity and emptiness pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .hoatrung import (
    cm_verdict,
    gorenstein_witness,
    j_record,
    profile_member,
    s_prime_equals_s,
    sf_member,
)
from .membership import find_holes, is_normal
from .model import FacetId, SVParams, build_semigroup

F = FacetId


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class CaseResult:
    name: str
    params: SVParams
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(passed), detail))


def _triple(result: CaseResult, s, expect_normal, expect_cm, expect_gor):
    nv = is_normal(s)
    cm = cm_verdict(s)
    gor = gorenstein_witness(s) if cm.is_cm else None
    result.check("normal", nv.is_normal == expect_normal, nv.status)
    result.check("cohen-macaulay", cm.is_cm == expect_cm, cm.status)
    got_gor = bool(gor and gor.is_consistent)
    result.check("gorenstein", got_gor == expect_gor, gor.status if gor else "not CM")
    return nv, cm, gor


def _facets(result: CaseResult, s, labels: list[str]) -> None:
    got = [f.label() for f in s.facets]
    result.check("facet list", got == labels, f"got {got}")


def case_1() -> CaseResult:
    s = build_semigroup([2, 2], [1, 1])
    r = CaseResult("degrees (2,2) on singleton blocks", s.params)
    _facets(r, s, ["F_{1,1}", "F_{2,1}"])
    nv, cm, gor = _triple(r, s, False, True, False)
    r.check("S' = S", cm.sprime is not None and cm.sprime.holds)
    r.check(
        "shift refuted by a tie at maximal sum",
        gor is not None and gor.status == "refuted"
        and set(gor.max_sum_points) == {(-1, 0), (0, -1)},
        f"extremal points {gor.max_sum_points if gor else None}",
    )
    return r


def case_2() -> CaseResult:
    s = build_semigroup([2, 2], [1, 2])
    r = CaseResult("degrees (2,2), blocks of size 1 and 2", s.params)
    _facets(r, s, ["F_{1,1}", "F_{2,1}", "F_{2,2}"])
    _triple(r, s, False, False, False)
    sp = s_prime_equals_s(s)
    r.check("S' exceeds S", not sp.holds, f"witness {sp.witness}")
    r.check(
        "reported witness is a unit vector outside S",
        sp.witness is not None
        and sum(sp.witness) == 1
        and not s.membership.member(sp.witness),
    )
    e11 = (1, 0, 0)
    in_all = all(profile_member(s, f, e11) for f in s.facets)
    verified = all(sf_member(s, f, e11).is_member for f in s.facets)
    r.check(
        "the first unit vector lies in every localized set but not in S",
        in_all and verified and not s.membership.member(e11),
    )
    return r


def case_3() -> CaseResult:
    s = build_semigroup([1, 2], [1, 1])
    r = CaseResult("degrees (1,2) on singleton blocks", s.params)
    _facets(r, s, ["F_{1,1}", "F_{1}"])
    nv, cm, gor = _triple(r, s, False, True, True)
    r.check("normality witness", nv.witness == (0, 1), f"got {nv.witness}")
    r.check(
        "shift witness x0 = (0,-1)",
        gor is not None and gor.x0 == (0, -1),
        f"got {gor.x0 if gor else None}",
    )
    return r


CASE4_TABLE = {
    # (facet labels) -> (acyclic, gj_empty)
    ("F_{1,1}", "F_{2,1}"): (True, False),
    ("F_{1,1}", "F_{2,2}"): (True, False),
    ("F_{1,1}", "F_{1}"): (False, True),
    ("F_{2,1}", "F_{2,2}"): (False, True),
    ("F_{2,1}", "F_{1}"): (True, False),
    ("F_{2,2}", "F_{1}"): (True, False),
    ("F_{1,1}", "F_{2,1}", "F_{2,2}"): (True, False),
    ("F_{1,1}", "F_{2,1}", "F_{1}"): (True, False),
    ("F_{1,1}", "F_{2,2}", "F_{1}"): (True, False),
    ("F_{2,1}", "F_{2,2}", "F_{1}"): (True, False),
}

CASE4_POINTS = {
    ("F_{1,1}", "F_{2,1}"): (-1, -1, 5),
    ("F_{1,1}", "F_{2,2}"): (-1, 5, -1),
    ("F_{2,1}", "F_{1}"): (1, -1, 1),
    ("F_{2,2}", "F_{1}"): (1, 1, -1),
    ("F_{1,1}", "F_{2,1}", "F_{2,2}"): (-2, -1, -1),
    ("F_{1,1}", "F_{2,1}", "F_{1}"): (-1, -4, 1),
    ("F_{1,1}", "F_{2,2}", "F_{1}"): (-1, 1, -4),
    ("F_{2,1}", "F_{2,2}", "F_{1}"): (1, -1, -1),
}


def case_4() -> CaseResult:
    s = build_semigroup([1, 2], [1, 2])
    r = CaseResult("degrees (1,2), blocks of size 1 and 2", s.params)
    _facets(r, s, ["F_{1,1}", "F_{2,1}", "F_{2,2}", "F_{1}"])
    _, _, gor = _triple(r, s, False, True, False)
    masks = [sum(1 << t for t in c) for n in (2, 3) for c in itertools.combinations(range(4), n)]
    records = {tuple(rec["J"]): rec for rec in (j_record(s, m) for m in masks)}
    r.check(
        "ten facet subsets of sizes two and three",
        len(records) == 10 and set(records) == set(CASE4_TABLE),
    )
    for key, (acyclic, empty) in CASE4_TABLE.items():
        rec = records.get(key)
        ok = (
            rec is not None
            and rec["acyclic"] == acyclic
            and (rec["gj_status"] == "empty") == empty
        )
        r.check(
            f"J={{{', '.join(key)}}}",
            ok,
            f"acyclic={rec['acyclic']} gj={rec['gj_status']}" if rec else "missing",
        )
    for key, point in CASE4_POINTS.items():
        j = set(key)
        inside = [f for f in s.facets if f.label() not in j]
        outside = [f for f in s.facets if f.label() in j]
        ok = all(profile_member(s, f, point) for f in inside) and not any(
            profile_member(s, f, point) for f in outside
        )
        r.check(f"{point} lies in G_J for J={{{', '.join(key)}}}", ok)
    r.check(
        "shift refuted",
        gor is not None and gor.status == "refuted",
        gor.reason if gor else "",
    )
    return r


def case_5() -> CaseResult:
    s = build_semigroup([3], [1])
    r = CaseResult("degree 3 on a single point", s.params)
    _facets(r, s, ["F_{1,1}"])
    nv, cm, gor = _triple(r, s, False, True, True)
    hole = find_holes(s)
    rest = find_holes(s, narrow=lambda region: region.clamp_lo(0, 2))
    r.check("the only hole is 1", (hole, rest) == ((1,), None), f"got {hole}, {rest}")
    r.check(
        "shift witness x0 = 1",
        gor is not None and gor.x0 == (1,),
        f"got {gor.x0 if gor else None}",
    )
    return r


def case_6() -> CaseResult:
    s = build_semigroup([2], [2])
    r = CaseResult("degree 2 on a block of size 2", s.params)
    _facets(r, s, ["F_{1,1}", "F_{1,2}"])
    nv, cm, gor = _triple(r, s, True, True, True)
    r.check(
        "shift witness x0 = (-1,-1)",
        gor is not None and gor.x0 == (-1, -1),
        f"got {gor.x0 if gor else None}",
    )
    return r


def case_7() -> CaseResult:
    s = build_semigroup([2], [3])
    r = CaseResult("degree 2 on a block of size 3", s.params)
    _facets(r, s, ["F_{1,1}", "F_{1,2}", "F_{1,3}"])
    nv, cm, gor = _triple(r, s, True, True, False)
    r.check(
        "componentwise supremum of the complement is (-1,-1,-1)",
        gor is not None and gor.coordwise_sup == (-1, -1, -1),
        f"got {gor.coordwise_sup if gor else None}",
    )
    r.check(
        "that supremum lies outside the group",
        gor is not None and gor.sup_in_group is False,
    )
    r.check(
        "shift refuted by a tie at maximal sum",
        gor is not None and gor.status == "refuted" and "extremal" in gor.reason,
        gor.reason if gor else "",
    )
    return r


CASES: list[Callable[[], CaseResult]] = [
    case_1, case_2, case_3, case_4, case_5, case_6, case_7,
]


def run_worked_cases() -> list[CaseResult]:
    return [case() for case in CASES]


def format_results(results: list[CaseResult]) -> str:
    lines = []
    for i, res in enumerate(results, start=1):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"case ({i}) {res.name}: {status}")
        for c in res.checks:
            mark = "ok" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail and not c.passed else ""
            lines.append(f"  - {c.label}: {mark}{detail}")
    total = sum(1 for r in results if r.passed)
    lines.append(f"{total}/{len(results)} cases pass")
    return "\n".join(lines)
