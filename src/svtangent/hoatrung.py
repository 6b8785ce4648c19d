"""The facet criterion for the Cohen-Macaulay and Gorenstein properties of
the semigroup ring.

For a facet F of the cone, the localized set S_F collects the group elements
x that land in the semigroup after adding some semigroup element lying on F.
The ring is Cohen-Macaulay iff the intersection of all S_F equals the
semigroup and, for every proper nonempty facet subset J, the difference
region G_J is empty or the incidence complex pi_J is acyclic.  It is
Gorenstein iff additionally the complement G_F of all the S_F is a single
shifted copy x0 - S of the semigroup.

Two routes decide S_F membership:

* `sf_member` is the literal bounded search: candidates y are sums of the
  generators lying on F.  If any y of coordinate sum <= B works, then so
  does N * y0, where y0 is the sum of all facet generators and N is the
  largest multiplicity in y (at most B/2), because the surplus N * y0 - y is
  again a sum of facet generators.  Scanning multiples of y0 is therefore
  complete up to the bound and usually finds members at tiny N.

* `build_profiles` gives a closed form for S_F obtained from the same ray
  argument pushed to its limit.  Writing Z for the coordinates vanishing on
  the whole facet and f for the facet functional, membership in S_F is
  equivalent to: x in the group, x nonnegative on Z, f(x) >= 0, plus a
  parity condition when every generator on F has even coordinate sum (an
  even total, or some odd-sum generator g with g <= x on Z and f(g) <=
  f(x)).  For the facets arising here Z is the facet's own coordinate (or
  empty for balance facets), so both extra conditions collapse to a single
  threshold on the facet value: the least facet value over the odd-sum
  generators, read from one transposition of those generators, with the
  facet's generator sum y0 filled in when the model is built.  The test
  suite checks the two routes against each other point by point on every
  small instance, and the thresholds and sums against the per-facet scan
  they replaced.

Every region scan (the hole search behind S' = S, the G_J emptiness scans
of the Cohen-Macaulay loop, the extremal and supremum scans of G_F, and the
shifted-copy check of the Gorenstein test) runs over block-sum tuples
through `regions.Region`, and is exact within the reported window.  In the
shifted-copy check, a z below x0 coordinatewise has x0 - z in the semigroup
iff the block sums of x0 - z pass the membership decision, so that
condition is a block-sum predicate of the region.  The reported
counterexample is whichever valid one the engine meets first; it is
re-verified by the bounded search on every facet and by an explicit
decomposition before it is reported.

Every exact membership question goes to the semigroup's own engine,
`s.membership`, and S' = S reads the semigroup's normality verdict through
`is_normal`; the verdict functions take the semigroup, the window and their
own settings (profiles, subset cap, evidence), nothing else.

The complex pi_J of a facet subset J is built once, from the facet masks
of the generators cut down to J: its maximal faces are the nonzero cut
masks that are maximal by inclusion (`model.maximal_masks`, the rule that
also reads the facets and extreme rays off the face lattice), closed by
`AbstractComplex.from_maximal_masks`: its faces stay int masks, one set
per face size, each distinct face listed once, and the build gives up
past FACE_COUNT_CAP faces.  Its reduced Euler characteristic is read off
the level sizes, and its acyclicity off
`AbstractComplex.reduced_homology_ranks`, which certifies zero homology
over F2 before it computes any exact rank over Q; both work on the masks.
Vertex tuples appear only as the facet labels of `--evidence`.  No complex
is cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .lattice import Vec, vadd, vsub
from .membership import Window, default_bound, default_window, find_holes, is_normal
from .model import (
    GROUP_BALANCED,
    GROUP_EVEN,
    AffineSemigroup,
    FacetId,
    facet_value,
    maximal_masks,
    primitive_in_group,
)
from .regions import EngineOverflow, Region
from .simplicial import AbstractComplex

SUBSET_CAP = 14
FACE_COUNT_CAP = 200_000


# ---------------------------------------------------------------------------
# Facet profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FacetProfile:
    """Closed-form description of the localized set S_F (see module doc)."""

    facet: FacetId
    mode: str  # "semigroup" (no facet generators, S_F = S) | "closed"
    parity_free: bool  # some facet generator has odd coordinate sum
    odd_threshold: Optional[int]  # min facet value over odd-sum generators


def build_profiles(s: AffineSemigroup) -> dict[FacetId, FacetProfile]:
    """The closed form of S_F for every facet F (see module doc).

    The odd-sum generators are transposed once into coordinate columns.  A
    coordinate facet's odd threshold is the least entry of its column, and
    a balance facet's is the least total minus twice the block sum.
    """
    odd = [g for g in s.generators if sum(g) % 2]
    columns = list(zip(*odd))  # one value per odd generator, per position
    totals = list(map(sum, odd))
    profiles = {}
    for f in s.facets:
        y0 = s.facet_sums[f]
        if not any(y0):
            profiles[f] = FacetProfile(f, "semigroup", False, None)
            continue
        zero_positions = {p for p in range(s.n) if y0[p] == 0}
        expected = {s.params.position(f.i, f.j)} if f.kind == "coord" else set()
        if zero_positions != expected:
            raise RuntimeError(
                f"facet {f.label()} has unexpected vanishing coordinates; "
                "the closed form does not apply"
            )
        if not odd:
            odd_threshold = None
        elif f.kind == "coord":
            odd_threshold = min(columns[s.params.position(f.i, f.j)])
        else:
            block = s.params.block_positions(f.i)
            block_sums = map(sum, zip(*columns[block.start : block.stop]))
            odd_threshold = min(t - 2 * b for t, b in zip(totals, block_sums))
        profiles[f] = FacetProfile(f, "closed", sum(y0) % 2 == 1, odd_threshold)
    return profiles


def profile_member(s: AffineSemigroup, profile: FacetProfile, x: Sequence[int]) -> bool:
    """Exact S_F membership for x in the group, via the closed form."""
    if profile.mode == "semigroup":
        return s.membership.member(x)
    threshold = _member_threshold(profile, sum(x) % 2)
    return threshold is not None and facet_value(s.params, profile.facet, x) >= threshold


# ---------------------------------------------------------------------------
# Bounded localized membership (the literal search)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SFMembershipResult:
    facet: FacetId
    status: str  # "member" | "nonmember"
    witness: Optional[Vec] = None  # y on the facet with x + y in the semigroup

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def sf_member(
    s: AffineSemigroup,
    f: FacetId,
    x: Sequence[int],
    bound: int,
) -> SFMembershipResult:
    """Bounded decision of x in S_F.

    A member answer is exact and carries the witness y in S cap F; a
    nonmember answer certifies that no y of coordinate sum <= bound works.
    """
    x = tuple(x)
    if not s.group_member(x):
        raise ValueError(f"{list(x)} is not in the group of the semigroup")
    membership = s.membership
    y0 = s.facet_sums[f]
    if not any(y0):  # no generator lies on f
        if membership.member(x):
            return SFMembershipResult(f, "member", (0,) * s.n)
        return SFMembershipResult(f, "nonmember")
    n_cap = (bound + 1) // 2
    y = (0,) * s.n
    for _ in range(n_cap + 1):
        if membership.member(vadd(x, y)):
            return SFMembershipResult(f, "member", y)
        y = vadd(y, y0)
    return SFMembershipResult(f, "nonmember")


# ---------------------------------------------------------------------------
# Region construction from profiles
# ---------------------------------------------------------------------------


def _member_threshold(profile: FacetProfile, parity: int) -> Optional[int]:
    """Least facet value of a member of S_F at the given total parity, or
    None when S_F has no point of that parity (closed-form profiles)."""
    if profile.parity_free or parity == 0:
        return 0
    if profile.odd_threshold is None:
        return None
    return max(0, profile.odd_threshold)


def _apply_membership_atom(
    region: Region, s: AffineSemigroup, profile: FacetProfile, parity: int
) -> None:
    """Constrain the region to x in S_F, under the given total parity."""
    f = profile.facet
    if profile.mode == "semigroup":
        raise ValueError(f"S_F = S on {f.label()}: the facet has no region form")
    threshold = _member_threshold(profile, parity)
    if threshold is None:
        region.mark_infeasible()
        return
    if f.kind == "coord":
        region.clamp_lo(s.params.position(f.i, f.j), threshold)
    else:
        region.clamp_balance_lo(f.i, threshold)


def _branch_caps(
    s: AffineSemigroup,
    profiles: dict[FacetId, FacetProfile],
    excluded: Sequence[FacetId],
    parity: int,
) -> tuple[dict[int, int], dict[int, int]]:
    """Upper bounds imposed by exclusion from S_F, for every F in
    `excluded`, at one total parity.

    Returns (coordinate caps, balance caps).  Exclusion from S_F caps the
    facet value one below `_member_threshold`; a facet without a threshold
    at this parity (membership is impossible anyway) gives no cap.  A facet
    without generators (S_F = S) has no such form and raises ValueError.
    """
    ub: dict[int, int] = {}
    eb: dict[int, int] = {}
    for f in excluded:
        profile = profiles[f]
        if profile.mode == "semigroup":
            raise ValueError(f"S_F = S on {f.label()}: the facet has no region form")
        threshold = _member_threshold(profile, parity)
        if threshold is None:
            continue
        if f.kind == "coord":
            ub[s.params.position(f.i, f.j)] = threshold - 1
        else:
            eb[f.i] = threshold - 1
    return ub, eb


def difference_regions(
    s: AffineSemigroup,
    profiles: dict[FacetId, FacetProfile],
    inside: Sequence[FacetId],
    outside: Sequence[FacetId],
    radius: int,
) -> list[Region]:
    """Regions (one per total parity) for the points of the box belonging to
    S_F for every F in `inside` and to no S_F with F in `outside`.  A facet
    without generators (S_F = S, only the origin facet of a rank-one cone)
    has no region form and raises ValueError."""
    out = []
    for parity in (0, 1):
        region = Region(
            params=s.params,
            lo=[-radius] * s.n,
            hi=[radius] * s.n,
            group_tag=s.group_tag,
            total_parity=parity,
        )
        for f in inside:
            _apply_membership_atom(region, s, profiles[f], parity)
        coordinate_caps, balance_caps = _branch_caps(s, profiles, outside, parity)
        for pos, cap in coordinate_caps.items():
            region.clamp_hi(pos, cap)
        for i, cap in balance_caps.items():
            region.clamp_balance_hi(i, cap)
        out.append(region)
    return out


# ---------------------------------------------------------------------------
# The S' = S test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SPrimeResult:
    status: str  # "holds" | "fails"
    witness: Optional[Vec] = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def s_prime_equals_s(
    s: AffineSemigroup,
    window: Optional[Window] = None,
    profiles: Optional[dict[FacetId, FacetProfile]] = None,
) -> SPrimeResult:
    """Does the intersection S' of all localized sets S_F equal the semigroup?

    Every element of S' lies in the cone and the group, so S' = S fails
    exactly when some hole lies in every S_F.  The search is the hole search
    of `find_holes`, narrowed by the closed form of every S_F at odd total
    (holes have odd total).  A facet without generators has S_F = S, and
    then S' = S outright; so does a "normal" verdict of `is_normal` over the
    same window (kept per semigroup, so that search runs once), since it
    found no hole at all.  A fails answer is exact (the witness is
    re-verified on every facet by the bounded search, with the bound
    `default_bound` derives from the window); a holds answer is bounded by
    the scanned window.
    """
    window = window or default_window(s.params)
    profiles = profiles or build_profiles(s)
    if (
        any(profiles[f].mode == "semigroup" for f in s.facets)
        or is_normal(s, window).is_normal
    ):
        return SPrimeResult("holds")

    def in_every_sf(region: Region) -> None:
        for f in s.facets:
            _apply_membership_atom(region, s, profiles[f], 1)

    holes = find_holes(s, window, first=True, narrow=in_every_sf)
    if not holes.group:
        return SPrimeResult("holds")
    x = holes.group[0]
    bound = default_bound(s.params, window)
    if not all(sf_member(s, f, x, bound).is_member for f in s.facets):
        raise RuntimeError("closed form disagrees with bounded search")
    return SPrimeResult("fails", x)


# ---------------------------------------------------------------------------
# Facet-subset complexes
# ---------------------------------------------------------------------------


def _orbit_masks(s: AffineSemigroup) -> list[int]:
    """The least facet mask of every orbit of proper nonempty facet subsets
    under the block symmetries, in increasing order.

    Permuting the coordinates inside a block, and swapping whole blocks with
    equal (a_i, b_i), preserves the generators, the group and the window,
    so it permutes the facets, carries G_J onto G_{sigma J} and pi_J onto an
    isomorphic pi_{sigma J}.  The orbit of J is fixed by one state per
    block: how many of its coordinate facets lie in J and whether its
    balance facet does.  Balance facets follow all coordinate facets in the
    facet order and each block's facets follow those of the blocks before
    it, so the least mask of an orbit takes the lowest coordinate facets of
    every block and, within a class of equal blocks, gives the balance
    facets to the first blocks and then the larger counts to the earlier
    blocks.
    """
    if len(s.facets) < 2:
        # No proper nonempty subset.  A lone facet may also stand for
        # several hyperplanes cutting the same face, so its label need not
        # be symmetric.
        return []
    params = s.params
    index = {f: t for t, f in enumerate(s.facets)}
    class_masks: list[list[int]] = []
    for (_, bi), group in itertools.groupby(
        range(1, params.k + 1), key=lambda i: (params.a[i - 1], params.b[i - 1])
    ):
        members = list(group)
        coord = [
            [index[f] for j in range(1, bi + 1) if (f := FacetId("coord", i, j)) in index]
            for i in members
        ]
        balance = [index.get(FacetId("balance", i)) for i in members]
        shapes = {(len(c), t is None) for c, t in zip(coord, balance)}
        if len(shapes) > 1 or 0 < len(coord[0]) < bi:
            raise RuntimeError(
                f"facets of the blocks {members} are not symmetric; "
                "the orbit enumeration does not apply"
            )
        flags = (0,) if balance[0] is None else (1, 0)
        states = [(e, c) for e in flags for c in range(len(coord[0]), -1, -1)]
        masks = []
        for combo in itertools.combinations_with_replacement(states, len(members)):
            mask = 0
            for (e, c), bits, bal in zip(combo, coord, balance):
                mask |= sum(1 << t for t in bits[:c]) | (1 << bal if e else 0)
            masks.append(mask)
        class_masks.append(masks)
    full = (1 << len(s.facets)) - 1
    return sorted(
        m for m in map(sum, itertools.product(*class_masks)) if 0 < m < full
    )


def _closure(maximal: Sequence[int]) -> Optional[AbstractComplex]:
    """pi_J from its maximal masks, vertex t for facet t, or None once it
    holds more than FACE_COUNT_CAP distinct faces (the empty face
    included)."""
    return AbstractComplex.from_maximal_masks(maximal, FACE_COUNT_CAP)


def _coned(maximal: Sequence[int]) -> bool:
    """Whether the complex is void or coned off by a vertex in every
    maximal face; either way it is acyclic."""
    if not maximal:
        return True
    common = maximal[0]
    for m in maximal[1:]:
        common &= m
        if not common:
            break
    return bool(common)


def _acyclicity_from_masks(maximal: list[int]) -> Optional[bool]:
    """Three-tier acyclicity: empty or coned complexes are acyclic; a nonzero
    reduced Euler characteristic, from the complex's level sizes, certifies
    non-acyclicity; `is_acyclic` decides the rest from the int-mask faces
    (zero homology over F2, else exact homology over Q).
    None means the complex holds more than FACE_COUNT_CAP faces (the caller
    then relies on the emptiness branch of the criterion)."""
    if _coned(maximal):
        return True
    complex_ = _closure(maximal)
    if complex_ is None:
        return None
    return complex_.euler_characteristic_reduced() == 0 and complex_.is_acyclic()


# ---------------------------------------------------------------------------
# Difference regions G_J
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GJResult:
    j_facets: tuple[FacetId, ...]
    status: str  # "empty" | "nonempty"
    points: tuple[Vec, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.status == "empty"


def _gj_scan(
    s: AffineSemigroup,
    profiles: dict[FacetId, FacetProfile],
    j_facets: Sequence[FacetId],
    window: Window,
    bound: int,
    limit: int,
) -> GJResult:
    """G_J inside the window.  Each parity branch contributes its first
    `limit` points in block-sum order; the `limit` smallest of those are
    listed, so both parities show.  The first point is re-checked by the
    bounded search up to `bound`."""
    j_set = set(j_facets)
    inside = [f for f in s.facets if f not in j_set]
    outside = sorted(j_set)
    points: list[Vec] = []
    for region in difference_regions(s, profiles, inside, outside, window.radius):
        points.extend(region.enumerate_points(limit))
    points = sorted(points)[:limit]
    if not points:
        return GJResult(tuple(sorted(j_facets)), "empty")
    _verify_gj_witness(s, points[0], inside, outside, bound)
    return GJResult(tuple(sorted(j_facets)), "nonempty", tuple(points))


def _verify_gj_witness(s, witness, inside, outside, bound) -> None:
    for f in inside:
        if not sf_member(s, f, witness, bound).is_member:
            raise RuntimeError("difference-region witness fails bounded re-check")
    for f in outside:
        if sf_member(s, f, witness, bound).is_member:
            raise RuntimeError("difference-region witness fails bounded re-check")


def gj_empty(
    s: AffineSemigroup,
    j_facets: Sequence[FacetId],
    window: Optional[Window] = None,
    profiles: Optional[dict[FacetId, FacetProfile]] = None,
    limit: int = 24,
) -> GJResult:
    """Emptiness of G_J = (intersection of S_F, F outside J) minus (union of
    S_F, F in J), scanned exactly within the window.  A nonempty answer's
    first point is re-checked by the bounded search, with the bound
    `default_bound` derives from the window."""
    j_facets = tuple(j_facets)
    if not j_facets or len(j_facets) >= len(s.facets):
        raise ValueError("J must be a proper nonempty subset of the facet set")
    if any(f not in s.facets for f in j_facets):
        raise ValueError("unknown facet in J")
    window = window or default_window(s.params)
    profiles = profiles or build_profiles(s)
    bound = default_bound(s.params, window)
    return _gj_scan(s, profiles, j_facets, window, bound, limit)


# ---------------------------------------------------------------------------
# The Cohen-Macaulay verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JRecord:
    j_facets: tuple[FacetId, ...]
    acyclic: Optional[bool]
    gj: Optional[GJResult]
    pi_maximal: tuple[tuple[FacetId, ...], ...] = ()
    homology_ranks: Optional[tuple[int, ...]] = None

    def to_dict(self) -> dict:
        return {
            "J": [f.label() for f in self.j_facets],
            "pi_maximal_faces": [[f.label() for f in face] for face in self.pi_maximal],
            "homology_ranks": list(self.homology_ranks)
            if self.homology_ranks is not None
            else None,
            "acyclic": self.acyclic,
            "gj_status": self.gj.status if self.gj else None,
            "gj_points": [list(p) for p in self.gj.points] if self.gj else None,
        }


@dataclass(frozen=True)
class CMVerdict:
    status: str  # "cm" | "not-cm" | "undetermined"
    reason: str
    sprime: Optional[SPrimeResult] = None
    j_records: tuple[JRecord, ...] = ()

    @property
    def is_cm(self) -> bool:
        return self.status == "cm"


def cm_verdict(
    s: AffineSemigroup,
    window: Optional[Window] = None,
    profiles: Optional[dict[FacetId, FacetProfile]] = None,
    subset_cap: int = SUBSET_CAP,
    full_evidence: bool = False,
) -> CMVerdict:
    """Cohen-Macaulay iff S' = S and every proper nonempty facet subset J has
    G_J empty or pi_J acyclic.

    The loop visits one J per orbit of the block symmetries (see
    `_orbit_masks`), the least mask of each orbit, in increasing mask order,
    and short-circuits on the first violated J.  A violated J violates with
    its whole orbit, so that J is the first violated one of the full mask
    order.  With full evidence every J is visited in mask order, and every J
    record carries both the acyclicity answer, read off its homology ranks,
    and the region scan.  Each pi_J is built from its maximal facet masks
    as a complex of int-mask faces, with no vertex tuple, and decided by
    the one F2-then-Q route of `reduced_homology_ranks`, with no cache; a
    pi_J of more than FACE_COUNT_CAP distinct faces has no answer, and its
    J is then settled by an empty G_J or reported undetermined.  S' = S
    reads the semigroup's normality verdict over the same window (see
    `s_prime_equals_s`), so after `is_normal` no hole search is repeated.
    Every G_J witness is re-checked by the bounded search, with the bound
    `default_bound` derives from the window.
    """
    window = window or default_window(s.params)
    if not s.generators:
        return CMVerdict("cm", "zero semigroup: polynomial ring")
    profiles = profiles or build_profiles(s)
    try:
        sprime = s_prime_equals_s(s, window, profiles)
    except EngineOverflow as err:
        return CMVerdict("undetermined", f"S' = S hole search over budget: {err}")
    if not sprime.holds:
        return CMVerdict(
            "not-cm",
            f"localized intersection exceeds the semigroup at {list(sprime.witness)}",
            sprime,
        )
    nf = len(s.facets)
    if nf > subset_cap:
        return CMVerdict(
            "undetermined", f"{nf} facets exceed the subset cap {subset_cap}", sprime
        )
    bound = default_bound(s.params, window)
    facet_order = list(s.facets)
    records: list[JRecord] = []
    failure: Optional[JRecord] = None
    undetermined_reason: Optional[str] = None
    jmasks = range(1, (1 << nf) - 1) if full_evidence else _orbit_masks(s)
    # The distinct incidence masks in first-seen order: the cut sets, and so
    # the maximal masks and their order, are those of the whole table.
    masks = dict.fromkeys(s.incidence)
    for jmask in jmasks:
        j_facets = tuple(f for t, f in enumerate(facet_order) if jmask >> t & 1)
        maximal = maximal_masks({m & jmask for m in masks if m & jmask})
        pi_maximal: tuple = ()
        ranks: Optional[tuple[int, ...]] = None
        acyclic: Optional[bool]
        if full_evidence:
            pi_maximal = tuple(
                tuple(f for t, f in enumerate(facet_order) if m >> t & 1)
                for m in maximal
            )
            complex_ = _closure(maximal)
            if complex_ is not None:
                ranks = tuple(complex_.reduced_homology_ranks())
                acyclic = not any(ranks[1:])
            else:
                acyclic = True if _coned(maximal) else None
        else:
            acyclic = _acyclicity_from_masks(maximal)
        gj: Optional[GJResult] = None
        if acyclic is not True or full_evidence:
            try:
                gj = _gj_scan(s, profiles, j_facets, window, bound, limit=24)
            except EngineOverflow as err:
                return CMVerdict(
                    "undetermined",
                    f"region scan over budget for J="
                    f"{[f.label() for f in j_facets]}: {err}",
                    sprime,
                    tuple(records),
                )
        record = JRecord(j_facets, acyclic, gj, pi_maximal, ranks)
        if full_evidence:
            records.append(record)
        if gj is not None and not gj.is_empty:
            if acyclic is False and failure is None:
                failure = record
                if not full_evidence:
                    break
            elif acyclic is None and undetermined_reason is None:
                undetermined_reason = (
                    f"complex too large for J={[f.label() for f in j_facets]} "
                    "and its region is nonempty"
                )
                if not full_evidence:
                    break
    if failure is not None:
        return CMVerdict(
            "not-cm",
            f"J={[f.label() for f in failure.j_facets]} has a non-acyclic complex "
            f"and a nonempty region (witness {list(failure.gj.points[0])})",
            sprime,
            tuple(records) if full_evidence else (failure,),
        )
    if undetermined_reason is not None:
        return CMVerdict("undetermined", undetermined_reason, sprime, tuple(records))
    return CMVerdict(
        "cm",
        "localized intersection equals the semigroup and every facet subset "
        "is empty-or-acyclic",
        sprime,
        tuple(records),
    )


# ---------------------------------------------------------------------------
# The Gorenstein witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GorensteinResult:
    status: str  # "consistent" | "refuted" | "undetermined"
    x0: Optional[Vec] = None
    max_sum_points: tuple[Vec, ...] = ()
    coordwise_sup: Optional[Vec] = None
    sup_in_group: Optional[bool] = None
    counterexample: Optional[Vec] = None
    reason: str = ""

    @property
    def is_consistent(self) -> bool:
        return self.status == "consistent"


def _gf_regions(
    s: AffineSemigroup, profiles: dict[FacetId, FacetProfile], radius: int
) -> list[Region]:
    return difference_regions(
        s, profiles, inside=[], outside=list(s.facets), radius=radius
    )


def _branch_infeasible(s: AffineSemigroup, parity: int) -> bool:
    if parity == 1 and s.group_tag in (GROUP_BALANCED, GROUP_EVEN):
        return True  # those groups only contain even coordinate sums
    return False


def _gorenstein_rank_one(s: AffineSemigroup) -> GorensteinResult:
    """Gorenstein witness for one-dimensional semigroups.

    The single facet is the origin, so the complement is the whole group
    minus the semigroup, a set of multiples of the primitive direction u.
    The multiples in the semigroup form a numerical semigroup whose gaps are
    bounded by the square of the largest generator multiple, so the largest
    gap is found exactly and uniqueness is automatic on a line.
    """
    u = primitive_in_group(s, s.generators[0])
    step = sum(u)
    multiples = sorted({sum(g) // step for g in s.generators})
    t_cap = multiples[-1] ** 2 + multiples[-1] + 2
    membership = s.membership
    in_sg = {t: membership.member(tuple(t * c for c in u)) for t in range(t_cap + 1)}
    gaps = [t for t in range(t_cap + 1) if not in_sg[t]]
    t_star = max(gaps) if gaps else -1
    x0 = tuple(t_star * c for c in u)
    for t in range(-t_cap - abs(t_star) - 2, t_cap + 1):
        in_gf = not membership.member(tuple(t * c for c in u))
        shifted = membership.member(tuple((t_star - t) * c for c in u))
        if in_gf != shifted:
            return GorensteinResult(
                "refuted",
                x0,
                (x0,),
                counterexample=tuple(t * c for c in u),
                reason="the complement is not the shifted semigroup at the witness",
            )
    return GorensteinResult(
        "consistent", x0, (x0,),
        reason="complement equals the shifted semigroup along the line",
    )


def _gf_branch_certified(
    s: AffineSemigroup, profiles, parity: int, m: int, radius: int
) -> bool:
    """Certificate that the parity branch of G_F has no element of
    coordinate sum >= m outside the open box of the given radius.

    Builds an upper bound U on the sum over the unboxed branch from the
    exclusion caps (coordinate caps summed per block; balance caps combined
    through the identities tying balances to the total), then per-coordinate
    lower bounds for any point of sum >= m.  When every lower bound clears
    the box, the boxed extremal data is the global extremal data.
    """
    if _branch_infeasible(s, parity):
        return True
    params = s.params
    ub, eb = _branch_caps(s, profiles, s.facets, parity)
    k = params.k
    su: list[Optional[int]] = []
    for i in range(1, k + 1):
        caps = [ub.get(q) for q in params.block_positions(i)]
        su.append(sum(caps) if all(c is not None for c in caps) else None)
    candidates: list[int] = []
    if all(x is not None for x in su):
        candidates.append(sum(su))
    if k >= 3 and all(i in eb for i in range(1, k + 1)):
        candidates.append(sum(eb.values()) // (k - 2))
    if s.group_tag == GROUP_BALANCED:
        for x in su:
            if x is not None:
                candidates.append(2 * x)
    for i in range(1, k + 1):
        if i in eb and su[i - 1] is not None:
            candidates.append(eb[i] + 2 * su[i - 1])
    if not candidates:
        return False
    u_bound = min(candidates)
    if u_bound < m:
        return True  # no branch point reaches sum m at all
    for i in range(1, k + 1):
        lows: list[int] = []
        if all(su[l] is not None for l in range(k) if l != i - 1):
            lows.append(m - sum(su[l] for l in range(k) if l != i - 1))
        if i in eb:
            lows.append(-((eb[i] - m) // 2))  # ceil((m - e) / 2)
        if s.group_tag == GROUP_BALANCED:
            lows.append(-((-m) // 2))  # block sums are half the total
        if not lows:
            return False
        sl = max(lows)
        positions = list(params.block_positions(i))
        for q in positions:
            other_caps = [ub.get(t) for t in positions if t != q]
            if any(c is None for c in other_caps):
                return False
            if sl - sum(other_caps) <= -radius:
                return False
    return True


def _gf_extremal(
    s: AffineSemigroup, profiles, radius: int
) -> tuple[Optional[int], int, list[Vec], bool]:
    """Boxed extremal data of G_F plus a flag telling whether the box
    provably contains every global extremal element.  The count is capped
    at five: the two parity branches never share a coordinate sum."""
    best, count, points = None, 0, []
    for region in _gf_regions(s, profiles, radius):
        t, c, pts = region.max_total(point_limit=4)
        if t is not None and (best is None or t > best):
            best, count, points = t, c, list(pts)
    if best is None:
        return None, 0, [], False
    certified = all(
        _gf_branch_certified(s, profiles, parity, best, radius) for parity in (0, 1)
    )
    return best, count, points, certified


def gorenstein_witness(
    s: AffineSemigroup,
    window: Optional[Window] = None,
    profiles: Optional[dict[FacetId, FacetProfile]] = None,
) -> GorensteinResult:
    """Search for x0 with G_F = x0 - S (callers must have checked CM).

    Since zero is the unique semigroup element of minimal coordinate sum, a
    valid x0 is the unique element of G_F of maximal coordinate sum; a tie
    refutes, with the componentwise supremum of G_F reported as evidence.  A
    unique candidate is then checked against the shifted semigroup over the
    safe sub-box (shrunk by the largest generator coordinate so that x0 - z
    never escapes scanned territory).  A counterexample is re-checked by the
    bounded search, with the bound `default_bound` derives from the window.
    """
    window = window or default_window(s.params)
    radius = window.radius
    if not s.facets:
        zero = (0,) * s.n
        return GorensteinResult(
            "consistent", zero, (zero,), zero, True,
            reason="zero semigroup: the model is a point",
        )
    profiles = profiles or build_profiles(s)
    if s.rank <= 1:
        return _gorenstein_rank_one(s)
    best = None
    count, points = 0, []
    for attempt in range(3):
        scan_radius = radius * (2 ** attempt)
        try:
            best, count, points, certified = _gf_extremal(s, profiles, scan_radius)
        except EngineOverflow as err:
            return GorensteinResult(
                "undetermined", reason=f"region scan over budget: {err}"
            )
        if best is not None and certified:
            radius = scan_radius
            break
    else:
        reason = (
            "no extremal element inside the window"
            if best is None
            else "extremal elements could not be certified inside any window"
        )
        return GorensteinResult("undetermined", reason=reason)
    points = sorted(points)
    if count != 1:
        sup = _coordwise_sup(s, profiles, radius)
        return GorensteinResult(
            "refuted",
            None,
            tuple(points[:4]),
            sup,
            s.group.member(sup) if sup is not None else None,
            reason=f"{count} extremal elements share the maximal coordinate sum",
        )
    x0 = points[0]
    safe = radius - s.max_generator_coordinate()
    if safe < 1:
        return GorensteinResult(
            "undetermined", x0, (x0,), reason="window too small for the shifted check"
        )
    try:
        counterexample = _shifted_counterexample(
            s, profiles, x0, safe, default_bound(s.params, window)
        )
    except EngineOverflow as err:
        return GorensteinResult(
            "undetermined", x0, (x0,), reason=f"shifted check over budget: {err}"
        )
    if counterexample is not None:
        return GorensteinResult(
            "refuted",
            x0,
            (x0,),
            counterexample=counterexample,
            reason="the complement is not the shifted semigroup at the witness",
        )
    return GorensteinResult(
        "consistent", x0, (x0,),
        reason="complement equals the shifted semigroup over the safe box",
    )


def _coordwise_sup(
    s: AffineSemigroup, profiles: dict[FacetId, FacetProfile], radius: int
) -> Optional[Vec]:
    """Componentwise supremum of G_F over the window, when it is nonempty."""
    regions = _gf_regions(s, profiles, radius)
    out = []
    for pos in range(s.n):
        best: Optional[int] = None
        for region in regions:
            v = region.max_coordinate(pos)
            if v is not None and (best is None or v > best):
                best = v
        if best is None:
            return None
        out.append(best)
    return tuple(out)


def _shifted_counterexample(
    s: AffineSemigroup,
    profiles: dict[FacetId, FacetProfile],
    x0: Vec,
    safe: int,
    bound: int,
) -> Optional[Vec]:
    """A z in the safe box with [z in G_F] != [x0 - z in S], or None.

    x0 must lie in G_F (a ValueError otherwise).  Then no z outside G_F has
    x0 - z in S: z in S_F and x0 - z in S would give x0 in S_F + S, which
    lies in S_F.  So the only counterexamples are z in G_F with x0 - z
    outside the semigroup.  For z <= x0 coordinatewise, x0 - z is
    nonnegative, so whether it lies in the semigroup depends only on its
    block sums sums(x0) - sums(z): a predicate on the block sums of z.  The
    search is one G_F region per position and parity with z exceeding x0
    there, and one per parity with z <= x0 and the predicate false.
    """
    if not s.group_member(x0) or any(
        profile_member(s, profiles[f], x0) for f in s.facets
    ):
        raise ValueError(f"{list(x0)} does not lie in G_F")
    params = s.params
    x0_sums = tuple(params.block_sum(x0, i) for i in range(1, params.k + 1))
    sums_member = s.membership.sums_member

    def shifted_nonmember(z_sums: tuple[int, ...]) -> bool:
        return not sums_member(
            tuple(a - b for a, b in zip(x0_sums, z_sums))
        )

    def regions():
        for pos in range(s.n):
            for region in _gf_regions(s, profiles, safe):
                region.clamp_lo(pos, x0[pos] + 1)
                yield region
        for region in _gf_regions(s, profiles, safe):
            for pos in range(s.n):
                region.clamp_hi(pos, x0[pos])
            region.sum_predicate = shifted_nonmember
            yield region

    for region in regions():
        z = region.find_point()
        if z is not None:
            _verify_shifted_counterexample(s, x0, z, bound)
            return z
    return None


def _verify_shifted_counterexample(s, x0, z, bound) -> None:
    """Re-check [z in G_F] != [x0 - z in S] by the bounded search on every
    facet and by an explicit decomposition of x0 - z."""
    in_gf = not any(sf_member(s, f, z, bound).is_member for f in s.facets)
    shifted = s.membership.decompose(vsub(x0, z)) is not None
    if in_gf == shifted:
        raise RuntimeError("shifted-copy counterexample fails the independent re-check")
