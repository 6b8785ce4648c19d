"""End-to-end classification: run the model, membership and facet-criterion
pipeline on one parameter triple, compare against the closed-form
classification table, and assemble machine-readable reports.

The expected-verdict table encodes the classification: the smooth cases
(S1, S2); when not smooth, the Cohen-Macaulay list (CM1..CM6) and the
Gorenstein list (G1..G5); and the normality list (N1, N2).  Every verdict
the pipeline computes is compared clause by clause.

Normality is exact (`is_normal`).  A normal cone is decided by theorem:
Cohen-Macaulay by Hochster, Gorenstein by Stanley's criterion as one
region query (`stanley_gorenstein`); the facet criterion (`cm_verdict`, then
`gorenstein_witness`) decides the others.  Neither route reads the table's
case split, so the comparison with the table is not circular.  Each cone
runs one route, so the evidence of a report is that of the route that
decided it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .hoatrung import (
    SUBSET_CAP,
    build_profiles,
    cm_verdict,
    gorenstein_witness,
    j_records,
    stanley_gorenstein,
)
from .membership import is_normal, is_smooth
from .model import SVParams, build_semigroup_from_params

YES = "yes"
NO = "no"
UNDETERMINED = "undetermined"


# ---------------------------------------------------------------------------
# Expected verdicts from the classification table
# ---------------------------------------------------------------------------


def _smooth_clauses(p: SVParams) -> list[str]:
    out = []
    if p.k == 2 and p.a == (1, 1) and p.b[0] == 1:
        out.append("S1")
    if p.k == 1 and (p.a[0] == 1 or (p.a[0] == 2 and p.b[0] == 1)):
        out.append("S2")
    return out


def _cm_clauses(p: SVParams) -> list[str]:
    out = []
    if p.k >= 3 and all(x == 1 for x in p.a):
        out.append("CM1")
    if p.k == 2 and p.a == (2, 2) and p.b == (1, 1):
        out.append("CM2")
    if p.k == 2 and p.a == (1, 2) and p.b[0] == 1:
        out.append("CM3")
    if p.k == 2 and p.a == (1, 1) and min(p.b) > 1:
        out.append("CM4")
    if p.k == 1 and p.a[0] >= 3 and p.b[0] == 1:
        out.append("CM5")
    if p.k == 1 and p.a[0] == 2 and p.b[0] > 1:
        out.append("CM6")
    return out


def _gorenstein_clauses(p: SVParams) -> list[str]:
    out = []
    if p.k == 3 and p.a == (1, 1, 1) and p.b == (1, 1, 1):
        out.append("G1")
    if p.k == 2 and p.a == (1, 2) and p.b == (1, 1):
        out.append("G2")
    if p.k == 2 and p.a == (1, 1) and p.b[0] == p.b[1] and p.b[0] > 1:
        out.append("G3")
    if p.k == 1 and p.a[0] >= 3 and p.b[0] == 1:
        out.append("G4")
    if p.k == 1 and p.a[0] == 2 and p.b[0] % 2 == 0:
        out.append("G5")
    return out


def _normal_clauses(p: SVParams) -> list[str]:
    out = []
    if all(x == 1 for x in p.a):
        out.append("N1")
    if p.k == 1 and p.a[0] == 2:
        out.append("N2")
    return out


@dataclass(frozen=True)
class ExpectedVerdicts:
    smooth: bool
    normal: bool
    cohen_macaulay: bool
    gorenstein: bool
    clauses: tuple[str, ...]

    def clause_label(self) -> str:
        return ",".join(self.clauses) if self.clauses else "none"


def expected_verdicts(p: SVParams) -> ExpectedVerdicts:
    """Expected verdict quadruple and the clauses supporting it.

    The smooth cases are classified directly; the CM and Gorenstein lists
    apply verbatim to the non-smooth cases, and smoothness implies all the
    other properties (smooth local rings are regular).
    """
    smooth_cl = _smooth_clauses(p)
    normal_cl = _normal_clauses(p)
    if smooth_cl:
        return ExpectedVerdicts(True, True, True, True, tuple(smooth_cl))
    cm_cl = _cm_clauses(p)
    g_cl = _gorenstein_clauses(p)
    clauses = tuple(cm_cl + g_cl + normal_cl)
    return ExpectedVerdicts(
        False, bool(normal_cl), bool(cm_cl), bool(g_cl), clauses
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # yes | no | undetermined
    detail: str = ""
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        out = {"status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class ClassificationReport:
    params: SVParams
    n: int
    rank: int
    dim_tangential: int
    smooth: Verdict
    normal: Verdict
    cohen_macaulay: Verdict
    gorenstein: Verdict
    expected: ExpectedVerdicts
    agreement: bool
    radius: int
    bound: int
    evidence: dict = field(default_factory=dict, compare=False)

    @property
    def has_undetermined(self) -> bool:
        return UNDETERMINED in (
            self.smooth.status,
            self.normal.status,
            self.cohen_macaulay.status,
            self.gorenstein.status,
        )

    def verdict_quadruple(self) -> tuple[str, str, str, str]:
        return (
            self.smooth.status,
            self.normal.status,
            self.cohen_macaulay.status,
            self.gorenstein.status,
        )

    def to_dict(self) -> dict:
        return {
            "params": {
                "k": self.params.k,
                "a": list(self.params.a),
                "b": list(self.params.b),
                "original_a": list(self.params.original_a),
                "original_b": list(self.params.original_b),
                "permutation": list(self.params.permutation),
            },
            "dims": {
                "n": self.n,
                "rank": self.rank,
                "dim_tangential": self.dim_tangential,
            },
            "verdicts": {
                "smooth": self.smooth.to_dict(),
                "normal": self.normal.to_dict(),
                "cohen_macaulay": self.cohen_macaulay.to_dict(),
                "gorenstein": self.gorenstein.to_dict(),
            },
            "expected": {
                "smooth": self.expected.smooth,
                "normal": self.expected.normal,
                "cohen_macaulay": self.expected.cohen_macaulay,
                "gorenstein": self.expected.gorenstein,
                "clauses": list(self.expected.clauses),
            },
            "agreement": self.agreement,
            "window": self.radius,
            "bound": self.bound,
            "evidence": self.evidence,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def csv_row(self) -> list[str]:
        return [
            str(self.params.k),
            ",".join(map(str, self.params.a)),
            ",".join(map(str, self.params.b)),
            str(self.n),
            str(self.rank),
            self.smooth.status,
            self.normal.status,
            self.cohen_macaulay.status,
            self.gorenstein.status,
            self.expected.clause_label(),
            str(self.agreement).lower(),
        ]


CSV_COLUMNS = [
    "k", "a", "b", "n", "rank",
    "smooth", "normal", "cm", "gorenstein", "clause", "agreement",
]


def _status(flag: bool) -> str:
    return YES if flag else NO


def classify(
    params: SVParams,
    subset_cap: int = SUBSET_CAP,
    full_evidence: bool = False,
) -> ClassificationReport:
    """Run the full pipeline on one parameter triple and compare against the
    classification table.

    No verdict depends on a box: the first hole is read in closed form,
    the narrowed S' = S search and every G_J decision read their regions
    with no box, and the top of G_F lies in one exact box.  The report's
    `radius` (the `window` key of its dict) is the largest radius of a box
    a walk scanned, a G_J listing or the top of G_F, and `bound` the
    largest multiple N* of a facet's generator sum at
    which their witness re-checks asked membership (`hoatrung._sf_scan`,
    one question per facet class, shared by its members); each is 0 where
    none ran.  `full_evidence` adds
    the S' = S answer and the record of each J the loop of `cm_verdict`
    visits (`j_records`), one per orbit that fills or misses each block,
    where that loop runs; the other orbits are cones and are neither listed
    nor counted.  It changes no verdict.  A normal cone runs no facet
    criterion, so its report is the plain one.
    """
    s = build_semigroup_from_params(params)
    expected = expected_verdicts(params)
    evidence: dict = {"facets": list(s.facet_labels)}
    radius = bound = 0
    if not s.facets:
        smooth = Verdict(YES, "zero semigroup: the model is a point")
        normal = Verdict(YES, "zero semigroup")
        cm = Verdict(YES, "zero semigroup")
        gor = Verdict(YES, "zero semigroup")
    else:
        # The S_F closed forms first, as a stage of its own: they are kept on
        # the semigroup, and the verdicts after them read them from there.
        build_profiles(s)
        nv = is_normal(s)
        sv = is_smooth(s)
        if nv.is_normal:
            normal = Verdict(
                YES,
                "certified: a hole has one nonzero block sum, odd, on a block of "
                "degree >= 2, and the group holds no such point",
            )
        else:
            normal = Verdict(NO, f"hole at {list(nv.witness)}", nv.witness)
        smooth = Verdict(_status(sv.is_smooth), sv.reason)
        # A normal cone is decided by theorem; the facet criterion decides
        # the others.
        if nv.is_normal:
            cm = Verdict(YES, "normal, hence Cohen-Macaulay (Hochster)")
            st = stanley_gorenstein(s)
            gor = Verdict(YES if st.is_gorenstein else NO, st.reason, st.witness)
            evidence["gorenstein"] = st.to_dict()
            bound = st.bound
        elif (cmv := cm_verdict(s, subset_cap=subset_cap)).status == "cm":
            gw = gorenstein_witness(s)
            if gw.status == "consistent":
                gor = Verdict(YES, gw.reason, gw.x0)
            elif gw.status == "refuted":
                gor = Verdict(NO, gw.reason)
            else:
                gor = Verdict(UNDETERMINED, gw.reason)
            evidence["gorenstein"] = gw.to_dict()
            cm = Verdict(YES, cmv.reason)
            radius, bound = gw.radius, gw.bound
        elif cmv.status == "not-cm":
            cm = Verdict(NO, cmv.reason, cmv.sprime.witness if cmv.sprime else None)
            gor = Verdict(NO, "not Cohen-Macaulay")
        else:
            cm = Verdict(UNDETERMINED, cmv.reason)
            gor = Verdict(UNDETERMINED, "Cohen-Macaulay status undetermined")
        if not nv.is_normal:
            bound = max(bound, cmv.bound)
        if full_evidence and not nv.is_normal:
            walked = cmv.sprime and cmv.sprime.holds and len(s.facets) <= subset_cap
            records, stopped = j_records(s) if walked else ([], None)
            evidence["j_records"] = records
            if stopped is not None:
                evidence["j_records_stopped"] = stopped
            if cmv.sprime:
                evidence["s_prime"] = {
                    "status": cmv.sprime.status,
                    "witness": list(cmv.sprime.witness) if cmv.sprime.witness else None,
                }
    computed = (smooth.status, normal.status, cm.status, gor.status)
    wanted = tuple(
        _status(x)
        for x in (
            expected.smooth,
            expected.normal,
            expected.cohen_macaulay,
            expected.gorenstein,
        )
    )
    agreement = computed == wanted
    return ClassificationReport(
        params=params,
        n=params.n,
        rank=s.rank,
        dim_tangential=params.n + s.rank,
        smooth=smooth,
        normal=normal,
        cohen_macaulay=cm,
        gorenstein=gor,
        expected=expected,
        agreement=agreement,
        radius=radius,
        bound=bound,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def normalized_grid(max_k: int, max_a: int, max_b: int) -> list[SVParams]:
    """All normalized parameter triples within the bounds, without
    duplicates: multisets of (a_i, b_i) pairs of each size up to max_k."""
    out = []
    for k in range(1, max_k + 1):
        for combo in itertools.combinations_with_replacement(
            itertools.product(range(1, max_a + 1), range(1, max_b + 1)), k
        ):
            out.append(SVParams.of([p[0] for p in combo], [p[1] for p in combo]))
    return out


@dataclass(frozen=True)
class SweepSummary:
    total: int
    agreements: int
    disagreements: int
    undetermined: int

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0 and self.undetermined == 0


def sweep(
    max_k: int,
    max_a: int,
    max_b: int,
    subset_cap: int = SUBSET_CAP,
    extra: Sequence[SVParams] = (),
    jobs: int = 1,
) -> tuple[list[ClassificationReport], SweepSummary]:
    """Classify every normalized triple within the bounds; instances are
    independent, and with jobs > 1 they are evaluated in parallel with the
    report order unchanged, by at most one worker process per instance (a
    pool forks all its workers at the first submit), in about 16 chunks
    per worker, so that each task carries many instances."""
    if min(max_k, max_a, max_b, jobs) < 1:
        raise ValueError("the grid bounds and jobs must be at least 1")
    grid = normalized_grid(max_k, max_a, max_b) + list(extra)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        width = min(jobs, len(grid))
        with ProcessPoolExecutor(max_workers=width) as pool:
            chunk = max(1, len(grid) // (16 * width))
            reports = list(pool.map(classify, grid, [subset_cap] * len(grid), chunksize=chunk))
    else:
        reports = [classify(p, subset_cap) for p in grid]
    agreements = sum(1 for r in reports if r.agreement)
    undetermined = sum(1 for r in reports if r.has_undetermined)
    disagreements = sum(
        1 for r in reports if not r.agreement and not r.has_undetermined
    )
    return reports, SweepSummary(len(reports), agreements, disagreements, undetermined)
