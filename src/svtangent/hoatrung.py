"""The facet criterion for the Cohen-Macaulay and Gorenstein properties of
the semigroup ring, and Stanley's criterion for the Gorenstein property of
a normal one.

`classify` runs the facet criterion only where normality is not certified
(`membership.is_normal`).  A normal semigroup ring is Cohen-Macaulay
(Hochster, Ann. of Math. 96, 1972), and it is Gorenstein iff the group
point whose facet values the facets pin exists (`stanley_gorenstein`), a
query to the same region engine as every scan below; on normal cones the
facet criterion stays an oracle, run only by the test suite.

For a facet F of the cone, the localized set S_F collects the group elements
x that land in the semigroup after adding some semigroup element lying on F.
The ring is Cohen-Macaulay iff the intersection of all S_F equals the
semigroup and, for every proper nonempty facet subset J, the difference
region G_J is empty or the incidence complex pi_J is acyclic.  It is
Gorenstein iff additionally the complement G_F of all the S_F is a single
shifted copy x0 - S of the semigroup.  Stanley's criterion decides it: a
Cohen-Macaulay graded domain is Gorenstein iff its Hilbert series is
symmetric.  A closed-form count of S by total (`_hilbert_counts`), the
points of the cone and the group less the holes, up to the largest total
of G_F plus twice the rank, gives the whole h-vector (`_h_vector`); its last
coefficient is the number of elements of G_F of largest total, so a tie
refutes, and one exact box of G_F holds those elements.  On a
Cohen-Macaulay ring the box exists, h is nonnegative of that degree and
the count of the box is its top coefficient, so `gorenstein_witness`
raises where a stage finds otherwise; only the engine budget leaves it
undetermined.

Two routes decide S_F membership:

* `sf_member` is the literal route: candidates y are sums of the
  generators lying on F.  If any y works, then so does N * y0, where y0 is
  the sum of all facet generators and N is the largest multiplicity in y,
  because the surplus N * y0 - y is again a sum of facet generators; and
  once N * y0 works, so does every larger multiple, since y0 lies in S.
  So x is in S_F iff x + N * y0 lies in S for all large N, and `_sf_scan`
  proves a multiple N* past which that membership no longer changes: the
  decision is one membership call at N* per facet class, with no bound.
  It is made on the block sums sums(x) + N* * sums(y0), through
  `SemigroupMembership.sums_member`, and builds no point.  The re-check of
  every witness (`_sf_facets`) runs it on every facet class, after one
  group test of the point, and returns the mask of the facets it holds.

* `build_profiles` gives a closed form for S_F obtained from the same ray
  argument pushed to its limit.  Writing Z for the coordinates vanishing on
  the whole facet and f for the facet functional, membership in S_F is
  equivalent to: x in the group, x nonnegative on Z, f(x) >= 0, plus a
  parity condition when every generator on F has even coordinate sum (an
  even total, or some odd-sum generator g with g <= x on Z and f(g) <=
  f(x)).  For the facets arising here Z is the facet's own coordinate (or
  empty for balance facets), so both extra conditions collapse to a single
  threshold on the facet value: the least facet value over the odd-sum
  generators.  The model build reads it, and the facet's generator sum
  y0 as its value on each block, off the block sums of the generators
  (`AffineSemigroup.odd_thresholds` and `facet_block_values`);
  `build_profiles` checks the premise on those values once per semigroup
  and then answers with the model's own thresholds.  The origin
  facet of a rank-one cone carries no generator, so there S_F = S, and on
  that line S is the same parity-threshold set: every S_F has this one
  form.  The test suite checks the two routes against each other point by
  point on every small instance, and the thresholds and sums against the
  transposition of the generators and the per-facet scan they replaced.

Every region search (the narrowed first-hole search behind S' = S, run
only where the normality witness lies outside S', the G_J scans of the
Cohen-Macaulay loop and of `--evidence`, and the scan of the top of G_F)
runs over a `regions.Region`, on rank-one cones as on every other, and no
answer depends on a box: the hole search reads its first hole off the
blocks of an unboxed region, with no walk (`membership.find_holes`), each
G_J is decided by its exact range of totals, read in closed form off the
breakpoints of its block sums' ends (`Region.total_range`), with its
point nearest 0 as witness (`_gj_parities`), and the top of G_F lies in
one exact box (`_gf_top_region`).  Only the `--evidence` listings of G_J
and the top of G_F walk a box; the report gives the radius of the latter
and the largest re-check multiple N* used.  The count of the
Hilbert series asks no membership question: it subtracts the holes, whose
closed form comes from the engine's odd shapes
(`SemigroupMembership._odd_shape`), and a knapsack over the generators'
block sums, which never asks the membership engine
(`membership._sum_of_shapes`), re-checks every hole it subtracts, as it
re-checks every hole witness (`membership.find_holes`).

Every exact membership question goes to the semigroup's own engine,
`s.membership`, which also records that `build_profiles` checked its
premise, and S' = S reads the semigroup's exact normality verdict through
`is_normal`, decided once and kept on the semigroup
(`AffineSemigroup.normality`); the verdict functions take the semigroup
and the subset cap, nothing else.

The faces of the complex pi_J of a facet subset J are the sets of J-facets
that meet in a nonzero face, each holding an extreme ray e_p + e_q, which
lies on the coordinate facet of every position but p and q and on the
balance facet of a block iff exactly one of p, q lies in it.  The rays
come in classes of block pairs, each holding every position of its blocks
(`_ray_classes`), so whether a set is a face depends only on the
blocks whose coordinate facets it fills and on its balance facets (proof
in `_pi_shape`).  A J that fills a block only in part gives a cone; on
every other J the cone test and the reduced Euler characteristic of pi_J
are read off those block states, with no face listed (`_pi_shape`).
`_orbit_masks` enumerates only the latter, one least mask per orbit, and
`_pi_acyclicity` settles each: acyclic if a cone or void, not acyclic if
its Euler characteristic is nonzero, and otherwise by the homology of the
state complex F whose faces are those block states: pi_J is F with each
filled block's vertex replaced by a simplex and its boundary, an iterated
suspension, so its ranks are F's shifted (proof in `_pi_shape`).  F is
closed from its maximal states by `AbstractComplex.from_maximal_masks`, as
int masks, and its ranks are read over F2 first, over Q only where
2-torsion may hide (`AbstractComplex.reduced_homology_ranks`).  pi_J
itself is listed only for `--evidence`, as its maximal faces: the facet
masks of the extreme rays cut down to J (`AffineSemigroup.ray_masks`) that
are nonzero and maximal by inclusion (`model.maximal_masks`: by decreasing
size, then increasing mask).  No complex is cached.  `cm_verdict` is the
one decision path.  `j_records`, the `--evidence` listing, walks the same
orbits in the same order, settles each pi_J by the same `_pi_acyclicity`,
and decides nothing; vertex tuples appear only as its facet labels.  It
lists no other orbit and reports no count of them: every orbit left out
fills some block in part, so its pi_J is a cone (`_pi_shape`), and
counting them would keep an enumeration of every orbit in the package for
one number.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .lattice import Vec, vscale
from .membership import _recheck_hole, find_holes, is_normal
from .model import (
    AffineSemigroup,
    FacetClass,
    FacetId,
    facet_value,
    maximal_masks,
)
from .regions import EngineOverflow, Region

SUBSET_CAP = 14
GJ_POINT_LIMIT = 24  # points listed per nonempty G_J


# ---------------------------------------------------------------------------
# Facet profiles
# ---------------------------------------------------------------------------


def build_profiles(s: AffineSemigroup) -> Mapping[FacetId, Optional[int]]:
    """The closed form of S_F for every facet F (see module doc): the
    model's read-only `AffineSemigroup.odd_thresholds`.  The first call
    checks the premise of the closed form, on the vanishing coordinates of
    each facet's generator sum, and marks it checked on the semigroup's
    membership engine; later calls return the mapping at once.  The
    classes of one class type, the kind and block type of a class, hold
    the same values at permuted blocks (`model.facet_list`), so the premise
    is checked on one class per class type.
    """
    engine = s.membership
    if engine.profiles is not None:
        return engine.profiles
    params, seen = s.params, set()
    for c in s.facet_classes:
        i = c.block - 1
        if (kind := (c.kind, params.a[i], params.b[i])) in seen:
            continue
        seen.add(kind)
        # A facet without generators is the origin facet of a rank-one cone,
        # where S_F = S.  On that line S is the parity-threshold set itself
        # (facet value >= 0, and >= the least odd generator's at odd total),
        # so the premise on the vanishing coordinates is not needed there.
        # The premise: the generator sum vanishes at the facet's own
        # coordinate alone, or nowhere on a balance facet, so every block
        # with a free coordinate (all but the own block of a coordinate
        # facet with b_i = 1) has a positive value.
        lone = kind[0] == "coord" and kind[2] == 1
        free = c.values[:i] + c.values[i + 1 :] if lone else c.values
        if any(c.values) and min(free, default=1) <= 0:
            raise RuntimeError(
                f"facet {c.facets[0].label()} has unexpected vanishing coordinates; "
                "the closed form does not apply"
            )
    engine.profiles = s.odd_thresholds
    return engine.profiles


def _threshold(s: AffineSemigroup, c: FacetClass, parity: int) -> Optional[int]:
    """Least facet value of a member of S_F, F in the class c, at the given
    total parity, or None when S_F has no point of that parity."""
    build_profiles(s)
    return c.threshold if parity else 0


def profile_member(s: AffineSemigroup, f: FacetId, x: Sequence[int]) -> bool:
    """Exact S_F membership for x in the group, via the closed form."""
    s.params.check_length(x)
    threshold = _threshold(s, s.facet_class(f), sum(x) % 2)
    return threshold is not None and facet_value(s.params, f, x) >= threshold


# ---------------------------------------------------------------------------
# Localized membership by the literal route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SFMembershipResult:
    facet: FacetId
    status: str  # "member" | "nonmember"
    witness: Optional[Vec] = None  # y on the facet with x + y in the semigroup

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def sf_member(s: AffineSemigroup, f: FacetId, x: Sequence[int]) -> SFMembershipResult:
    """Exact decision of x in S_F by one membership call at the multiple N*
    of the facet's generator sum y0 that `_sf_scan` proves.  A member
    answer carries the witness N* * y0 in S cap F."""
    x = tuple(x)
    if not s.group_member(x):
        raise ValueError(f"{list(x)} is not in the group of the semigroup")
    c = s.facet_class(f)  # refuses an unknown facet
    ((members, mult),) = _sf_scan(s, x, (c,))
    if not members & (c.mask & -c.mask) << max(f.j - 1, 0):
        return SFMembershipResult(f, "nonmember")
    return SFMembershipResult(f, "member", vscale(mult, s.facet_sum(f)))


def _sf_facets(s: AffineSemigroup, x: Sequence[int]) -> tuple[int, int]:
    """The mask of the facets F with x in S_F by the literal route
    `sf_member` (bit t for s.facets[t]), and the largest multiple N* its
    calls used (0 when none ran): the independent re-check of every witness
    the closed forms find."""
    x = tuple(x)
    if not s.group_member(x):
        raise ValueError(f"{list(x)} is not in the group of the semigroup")
    scan = _sf_scan(s, x, s.facet_classes)
    return sum(members for members, _ in scan), max((mult for _, mult in scan), default=0)


def _sf_scan(
    s: AffineSemigroup, x: Vec, classes: Sequence[FacetClass]
) -> list[tuple[int, int]]:
    """For a group point x, on each of the facet classes `classes`: the
    mask of its members F with x in S_F, and the multiple N* of their
    generator sum y0 it tests (0 where it asks nothing), decided as x + N*
    * y0 in S by one `SemigroupMembership.sums_member` call per class.

    Let X be the block sums of x, c those of y0 (`FacetClass.sums`) and
    beta_i(t) = sum(t) - 2 t_i the balance functional of block i.  y0 lies
    in S, so c >= 0 and beta_i(c) >= 0, and x + N * y0 in S implies x + (N
    + 1) * y0 in S.  y0 is 0 at the facet's own coordinate and equal to the
    block's value v_l (`FacetClass.values`) at every other coordinate of
    block l, so no multiple clears a negative own coordinate, nor a
    negative block minimum m_l where v_l is 0: x is in no S_F there.
    Otherwise N* is 1 plus the largest of 0; ceil(-m_l / v_l) over the
    blocks with m_l < 0 (the start, which clears the negative coordinates;
    the minima are read once per x); ceil((a_l - X_l) / c_l) over the
    blocks with c_l > 0; and ceil((sum(a) - beta_i(X)) / beta_i(c)) over
    the balance blocks with beta_i(c) > 0.

    Proof that x is in S_F iff x + N* * y0 is in S.  Take N >= N* - 1.
    The point x + N * y0 is nonnegative, with block sums T = X + N * c, so
    its membership is the decision on T (`SemigroupMembership._decide_sums`):
    T in the cone and the group, and at odd total some odd generator shape
    t <= T with T - t in the cone.  The group holds for every N, because x
    and y0 both lie in it.  A moving balance (beta_i(c) > 0) is at least
    sum(a) >= sum(t) >= beta_i(t), so it stays nonnegative after any shape
    is taken out; a moving block (c_l > 0) has T_l >= a_l >= t_l.  The
    fixed blocks and balances (c_l = 0, beta_i(c) = 0) keep their values
    at x.  So from N* - 1 on the answer depends on N only through the
    parity of the total: at even total it is "every fixed balance of X is
    nonnegative", at odd total that and an odd shape fitting the fixed
    parts, neither of which moves with N.  If sum(c) is even the answer is
    the same at every N >= N* - 1; if it is odd, N* - 1 or N* has even
    total, and by monotonicity the answer at N* is the even one, which
    every odd-total answer implies.  Either way, if some multiple works,
    the larger ones of N*'s parity work, and they answer as N* does.

    Once per class.  Past its own coordinate, the test reads a facet only
    through its class: the members of a class share y0 off their own
    coordinates, and a block minimum that is negative lies off a
    nonnegative own coordinate.  So a member whose own coordinate is
    negative is in no S_F, and the others share their class's answer; a
    class with no such other member asks nothing.  A coordinate class
    holds every coordinate of its block, bit by bit from its lowest bit.
    Swapping two blocks of one type maps S onto itself and carries each
    class onto the class of the same kind at the other block, so two
    classes of one kind whose blocks have one type, and in x equal block
    sums and minima, ask the same question up to that swap: they share one
    answer as well.

    What x contributes to N* is read once per x: the depth -m_l of each
    negative block minimum, the room a_l - X_l of each block and the room
    sum(a) - beta_i(X) of each balance, each kept only where it is
    positive, since a term of 0 or less never raises N* above 1.  Each
    class key then reads its class's y0 against those lists alone.
    """
    sums_member = s.membership.sums_member
    params = s.params
    a, starts = params.a, params.block_starts
    parts = [x[lo:hi] for lo, hi in zip(starts, starts[1:])]
    x_sums, minima = tuple(map(sum, parts)), list(map(min, parts))
    depths = [(l, -m) for l, m in enumerate(minima) if m < 0]
    rooms = [(l, r) for l, r in enumerate(map(operator.sub, a, x_sums)) if r > 0]
    spare = sum(a) - sum(x_sums)
    balance_rooms = [
        (i - 1, r) for i in params.balance_blocks if (r := spare + 2 * x_sums[i - 1]) > 0
    ]
    answers: dict[tuple, tuple[int, bool]] = {}

    def answer(c: FacetClass) -> tuple[int, bool]:
        """N* - 1 is the largest ceiling below, and 0 where there is none."""
        values, step, reach = c.values, c.sums, 0
        for l, depth in depths:
            if not values[l]:
                return 0, False
            if (need := -(-depth // values[l])) > reach:
                reach = need
        for l, room in rooms:
            if step[l] and (need := -(-room // step[l])) > reach:
                reach = need
        step_total = sum(step)
        for i, room in balance_rooms:
            if (moving := step_total - 2 * step[i]) > 0 and (need := -(-room // moving)) > reach:
                reach = need
        mult = reach + 1
        return mult, sums_member(tuple([xl + mult * cl for xl, cl in zip(x_sums, step)]))

    out: list[tuple[int, int]] = []
    for c in classes:
        i, members = c.block - 1, c.mask
        if c.kind == "coord" and minima[i] < 0:
            low = members & -members
            members = sum(low << j for j, v in enumerate(x[starts[i] : starts[i + 1]]) if v >= 0)
            if not members:
                out.append((0, 0))
                continue
        key = (c.kind, a[i], params.b[i], x_sums[i], minima[i])
        if key not in answers:
            answers[key] = answer(c)
        mult, member = answers[key]
        out.append((members if member else 0, mult))
    return out


# ---------------------------------------------------------------------------
# Region construction from profiles
# ---------------------------------------------------------------------------


def _clamp_class(
    region: Region,
    s: AffineSemigroup,
    c: FacetClass,
    bits: int,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> None:
    """Clamp the facet values of the members of class c whose bits lie in
    `bits` to [lo, hi] (None for no bound): the coordinates of a
    coordinate class, the balance of a balance class."""
    if c.kind == "balance":
        if lo is not None:
            region.clamp_balance_lo(c.block, lo)
        if hi is not None:
            region.clamp_balance_hi(c.block, hi)
        return
    start, first = s.params.block_starts[c.block - 1], (c.mask & -c.mask).bit_length() - 1
    for j in range(c.mask.bit_count()):
        if bits >> first + j & 1:
            if lo is not None:
                region.clamp_lo(start + j, lo)
            if hi is not None:
                region.clamp_hi(start + j, hi)


def _apply_membership_atom(
    region: Region, s: AffineSemigroup, c: FacetClass, bits: int, parity: int
) -> None:
    """Constrain the region to x in S_F for the members F of class c in
    `bits`, under the given total parity."""
    threshold = _threshold(s, c, parity)
    if threshold is None:
        region.infeasible = True
        return
    _clamp_class(region, s, c, bits, lo=threshold)


def _apply_exclusion_atom(
    region: Region, s: AffineSemigroup, c: FacetClass, bits: int, parity: int
) -> None:
    """Constrain the region to x outside S_F for the members F of class c
    in `bits`, under the given total parity: exclusion from S_F caps the
    facet value one below its threshold; a class without a threshold at
    this parity (membership is impossible anyway) gives no cap."""
    threshold = _threshold(s, c, parity)
    if threshold is not None:
        _clamp_class(region, s, c, bits, hi=threshold - 1)


def difference_regions(
    s: AffineSemigroup,
    inside: Sequence[FacetId],
    outside: Sequence[FacetId],
) -> list[Region]:
    """Regions (one per total parity), with no box, for the group points
    belonging to S_F for every F in `inside` and to no S_F with F in
    `outside`.  The atoms run once per facet class, on its members in
    each set."""
    first = {(c.kind, c.block): (c.mask & -c.mask).bit_length() - 1 for c in s.facet_classes}
    in_mask, out_mask = (
        sum(1 << first[f.kind, f.i] + max(f.j - 1, 0) for f in facets)
        for facets in (inside, outside)
    )
    out = []
    for parity in (0, 1):
        region = Region.of_group(s, [-math.inf] * s.n, [math.inf] * s.n, parity)
        for c in s.facet_classes:
            if c.mask & in_mask:
                _apply_membership_atom(region, s, c, c.mask & in_mask, parity)
            if c.mask & out_mask:
                _apply_exclusion_atom(region, s, c, c.mask & out_mask, parity)
        out.append(region)
    return out


# ---------------------------------------------------------------------------
# The S' = S test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SPrimeResult:
    status: str  # "holds" | "fails"
    witness: Optional[Vec] = None
    bound: int = 0  # the largest re-check multiple N* of the witness, 0 when none

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def s_prime_equals_s(s: AffineSemigroup) -> SPrimeResult:
    """Does the intersection S' of all localized sets S_F equal the semigroup?

    Every element of S' lies in the cone and the group, so S' = S fails
    exactly when some hole lies in every S_F; the witness is the first, in
    the order of `find_holes`.  A "normal" verdict of `is_normal` (exact)
    gives S' = S outright.  Otherwise its witness h, the first hole of all,
    is tested against the closed form of every S_F at odd total, one class
    at a time (`_in_every_sf`), and if it passes it is the first hole of
    S'.  Proof: the narrowed search below takes the first block-sum tuple
    of the holes that meet its bounds, which is h's own, e_j, since h
    meets them; its point is then the lexicographically largest of the
    region with block sums e_j, and h = e_p, p the first position of
    block j, is the largest of all nonnegative points with them.  Only
    where h lies outside S' does that search run: `find_holes` narrowed by
    the closed forms at odd total (holes have odd total), lower bounds on
    coordinates and balances, with no box, so both answers are exact.  The
    witness is re-verified on every facet by the literal route
    (`_sf_facets`).
    """
    normal = is_normal(s)
    if normal.is_normal:
        return SPrimeResult("holds")
    x = normal.witness
    if not _in_every_sf(s, x):

        def in_every_sf(region: Region) -> None:
            for c in s.facet_classes:
                _apply_membership_atom(region, s, c, c.mask, 1)

        x = find_holes(s, narrow=in_every_sf)
        if x is None:
            return SPrimeResult("holds")
    inside, mult = _sf_facets(s, x)
    if inside != (1 << len(s.facets)) - 1:
        raise RuntimeError("closed form disagrees with the literal S_F route")
    return SPrimeResult("fails", x, mult)


def _in_every_sf(s: AffineSemigroup, x: Vec) -> bool:
    """Whether the group point x lies in every S_F by the closed forms, one
    class at a time: the least facet value of its members, the block's
    minimum for a coordinate class, against the class's threshold."""
    sums, starts = s.params.block_sums(x), s.params.block_starts
    total = sum(sums)
    for c in s.facet_classes:
        i, threshold = c.block - 1, _threshold(s, c, total % 2)
        value = total - 2 * sums[i] if c.kind == "balance" else min(x[starts[i] : starts[i + 1]])
        if threshold is None or value < threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# Facet-subset complexes
# ---------------------------------------------------------------------------


def _orbit_masks(s: AffineSemigroup) -> list[int]:
    """The least facet mask of every orbit of proper nonempty facet subsets
    under the block symmetries whose subsets hold all or none of each
    block's coordinate facets, in increasing order: the orbits of J whose
    pi_J need not be a cone (`_pi_shape`).

    Permuting the coordinates inside a block, and swapping whole blocks of
    one type (`SVParams.block_types`), preserves the generators and the
    group, so it permutes the facets, carries G_J onto G_{sigma J} and
    pi_J onto an isomorphic pi_{sigma J}.  The orbit of J is fixed by one
    state per block: whether J holds its coordinate facets (all or none of
    them here) and whether it holds its balance facet.  The facet-class
    table keeps each class type whole (`model.facet_list`) but for a lone
    facet, so the blocks of a type have the same facets.  Balance facets
    follow all coordinate facets in the facet order and each block's
    facets follow those of the blocks before it, so the least mask of an
    orbit, within a type, gives the balance facets to the first blocks and
    then the coordinate facets to the earlier blocks.
    """
    if len(s.facets) < 2:
        # No proper nonempty subset.  A lone facet may also stand for
        # several hyperplanes cutting the same face, so its label need not
        # be symmetric.
        return []
    coord, balance = s.block_masks
    type_masks: list[list[int]] = []
    first = 0
    for *_, m in s.params.block_types:
        blocks = range(first, first + m)
        first += m
        flags = (True, False) if balance[blocks[0]] else (False,)
        fills = (True, False) if coord[blocks[0]] else (False,)
        states = [(e, w) for e in flags for w in fills]
        type_masks.append([
            sum((coord[i] if w else 0) | (balance[i] if e else 0)
                for (e, w), i in zip(combo, blocks))
            for combo in itertools.combinations_with_replacement(states, m)
        ])
    full = (1 << len(s.facets)) - 1
    return sorted(
        m for m in map(sum, itertools.product(*type_masks)) if 0 < m < full
    )


def _mask_facets(s: AffineSemigroup, mask: int) -> tuple[FacetId, ...]:
    return tuple(itertools.compress(s.facets, map(int, reversed(bin(mask)[2:]))))


def _mask_labels(s: AffineSemigroup, mask: int) -> list[str]:
    """The labels of the mask's facets, read off the semigroup's one list."""
    return list(itertools.compress(s.facet_labels, map(int, reversed(bin(mask)[2:]))))


def _pi_maximal(s: AffineSemigroup, jmask: int) -> list[int]:
    """pi_J's maximal faces: the nonzero ray masks cut down to J, maximal."""
    return maximal_masks({m & jmask for m in s.ray_masks if m & jmask})


def _ray_classes(s: AffineSemigroup) -> list[tuple[int, int]]:
    """The block pairs (i, l), 0-based with i <= l, whose position pairs
    give the extreme rays, by the rule of `model.sum_two_masks`: (i, i) for
    each block of degree two or more, and (i, l) with i < l when a balance
    facet lies on i or l or both blocks have degree one."""
    a = s.params.a
    on_balance = [bool(m) for m in s.block_masks[1]]
    diagonal = [(i, i) for i, ai in enumerate(a) if ai >= 2]
    return diagonal + [
        (i, l)
        for i, l in itertools.combinations(range(len(a)), 2)
        if on_balance[i] or on_balance[l] or a[i] == a[l] == 1
    ]


def _submasks(mask: int) -> list[int]:
    """Every submask of the mask, 0 first."""
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [u | low for u in subs]
        mask ^= low
    return subs


def _pi_states(s: AffineSemigroup, jmask: int) -> Optional[tuple[int, int, set[tuple[int, int]]]]:
    """The blocks W whose coordinate facets J fills and the blocks E of J's
    balance facets, as block masks, and the face states (U, B) of pi_J
    (`_pi_shape`); None when J holds only some coordinate facets of a
    block."""
    coord, balances = s.block_masks  # per block, its coordinate and balance facets
    whole = 0
    for i, m in enumerate(coord):
        if m & jmask == m != 0:
            whole |= 1 << i
        elif m & jmask:
            return None
    balance = sum(1 << i for i, m in enumerate(balances) if m & jmask)
    faces = set()  # per class: U within W less its blocks, B within its balances
    for i, l in _ray_classes(s):
        pair = (1 << i) | (1 << l)
        us = _submasks(whole & ~pair)
        faces.update((u, b) for b in _submasks(pair & balance if i != l else 0) for u in us)
    return whole, balance, faces


def _pi_shape(s: AffineSemigroup, jmask: int) -> tuple[bool, int]:
    """Whether pi_J is void or a cone, and its reduced Euler characteristic,
    from the states of J's blocks (`_pi_states`); no face is listed.

    The fact.  The extreme rays are e_p + e_q for the position pairs of the
    classes of `_ray_classes`.  Such a ray lies on the coordinate facet of
    position r iff r is not p or q, and on the balance facet of block m iff
    exactly one of p, q lies in block m, so a diagonal pair lies on no
    balance facet.  A set T = C + B of J-facets, C coordinate and B
    balance, is a face of pi_J iff some ray lies on all of it, iff some
    class (i, l) has a position of block i and one of block l whose
    coordinate facets C misses, and B within the balance facets of i and
    l (none when i = l).  C misses some position of a block unless it holds
    every coordinate facet of it, and a block without coordinate facets it
    never fills.  So T is a face iff its state (U, B) is, U the blocks whose
    coordinate facets C fills: some class has neither block in U and B
    within its balance facets.

    Partial blocks.  If J holds some but not all coordinate facets of a
    block, adding one of them to a face fills no block, so that facet lies
    in every maximal face: pi_J is a cone (and void if no ray meets J).

    Whole blocks.  Otherwise let W be the blocks whose coordinate facets all
    lie in J and E the balance facets of J; each state (U within W, B
    within E) that passes the class test stands for every C that fills
    exactly the blocks of U.  The faces of one state add (-1)^(|C| + |B| -
    1) over those C, and over the proper subsets of a block of b_i facets
    (-1)^|C| adds to -(-1)^(b_i), so the reduced Euler characteristic is
    -prod_{i in W} (-1)^(b_i) * sum over the face states of (-1)^(|W - U| +
    |B|).  pi_J is void iff no vertex is a face: a coordinate facet of a
    block i in W has the state ({i} if b_i = 1 else {}, {}), a balance
    facet m the state ({}, {m}).  A coordinate facet c of block i in W lies
    in every maximal face iff adding it to any face gives a face; that
    changes the state only from C with i outside U and C holding the rest
    of block i, which every such face state has, so iff (U + {i}, B) is a
    face state for every face state (U, B) with i outside U.  A balance
    facet m lies in every maximal face iff (U, B + {m}) is a face state for
    every face state (U, B).

    Homology.  The face states are the faces of the state complex F on the
    blocks of W and the balance facets of J, and pi_J is F with each block i
    of W replaced by the pair (D, bd D), D the simplex on its b_i facets: a
    face holds all of D where its state has i in U, else any proper subset.
    Replacing a vertex v of a complex K so gives K' = del_v K * bd D union
    lk_v K * D, * the join, lk_v K void where v is in no face.  The second
    part is a cone or void and meets the first in lk_v K * bd D; a join with
    the sphere bd D shifts reduced homology up by b_i - 1, naturally, so by
    Mayer-Vietoris for K' and for K = del_v K union lk_v K * v, and the five
    lemma, H~_q(K') = H~_(q - b_i + 1)(K) over any field (Munkres, Elements
    of Algebraic Topology, 1984).  So H~_q(pi_J) = H~_(q - t)(F), t the sum
    of b_i - 1 over W.
    """
    states = _pi_states(s, jmask)
    if states is None:
        return True, 0
    whole, balance, faces = states
    coord = s.block_masks[0]
    blocks = [i for i in range(s.params.k) if whole >> i & 1]
    vertices = [(1 << i if coord[i].bit_count() == 1 else 0, 0) for i in blocks]
    vertices += [(0, 1 << i) for i in range(s.params.k) if balance >> i & 1]
    if not faces.intersection(vertices):
        return True, 0
    coned = any(
        all((u | 1 << i, b) in faces for u, b in faces if not u >> i & 1) for i in blocks
    ) or any(
        all((u, b | 1 << m) in faces for u, b in faces)
        for m in range(s.params.k) if balance >> m & 1
    )
    total = sum((-1) ** ((whole & ~u).bit_count() + b.bit_count()) for u, b in faces)
    return coned, -(-1) ** sum(coord[i].bit_count() for i in blocks) * total


def _pi_acyclicity(s: AffineSemigroup, jmask: int) -> tuple[bool, Optional[list[int]]]:
    """Acyclicity of pi_J in three tiers, and its reduced homology ranks
    where it built a complex (else None): a void or coned-off complex is
    acyclic and a nonzero reduced Euler characteristic certifies
    non-acyclicity, both read off J's block states (`_pi_shape`); the rest
    is decided by the ranks of the state complex F, built from its maximal
    states, shifted up by the sum of b_i - 1 over the blocks J fills
    (proof in `_pi_shape`; `AbstractComplex.reduced_homology_ranks`)."""
    coned, euler = _pi_shape(s, jmask)
    if coned or euler:
        return coned, None
    from .simplicial import AbstractComplex  # only this branch builds a complex

    k, coord = s.params.k, s.block_masks[0]
    whole, _, faces = _pi_states(s, jmask)
    shift = sum(coord[i].bit_count() - 1 for i in range(k) if whole >> i & 1)
    states = AbstractComplex.from_maximal_masks(maximal_masks(u | b << k for u, b in faces))
    ranks = [0] * shift + states.reduced_homology_ranks()
    return not any(ranks[1:]), ranks


# ---------------------------------------------------------------------------
# Difference regions G_J
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GJResult:
    j_facets: tuple[FacetId, ...]
    status: str  # "empty" | "nonempty"
    points: tuple[Vec, ...] = ()
    radius: int = 0  # the radius of the listing box, 0 when empty
    bound: int = 0  # the largest re-check multiple N* of the first point, 0 when empty

    @property
    def is_empty(self) -> bool:
        return self.status == "empty"


def _gj_parities(s: AffineSemigroup, j_facets: Sequence[FacetId]) -> list[tuple[Region, Vec]]:
    """Each parity of G_J that has points, as its region with no box and
    the point of its total nearest 0: G_J is decided exactly by each
    parity's range of totals (`Region.total_range`), and the point is read
    off it (`Region.point_of_total`), with no walk."""
    j_set = set(j_facets)
    regions = difference_regions(s, [f for f in s.facets if f not in j_set], sorted(j_set))
    return [
        (r, r.point_of_total(max(ends[0], min(ends[1], r.total_parity))))
        for r in regions if (ends := r.total_range())
    ]


def _gj_recheck(s: AffineSemigroup, j_facets: Sequence[FacetId], x: Vec) -> int:
    """The largest re-check multiple N* of the point x of G_J by the literal
    route (`_sf_facets`), which must find x in exactly the S_F off J."""
    inside, mult = _sf_facets(s, x)
    if inside != sum(1 << t for t, f in enumerate(s.facets) if f not in j_facets):
        raise RuntimeError("difference-region witness fails the literal S_F re-check")
    return mult


def _gj_scan(s: AffineSemigroup, j_facets: Sequence[FacetId]) -> GJResult:
    """G_J, exactly, with a listing.  Its parities with points
    (`_gj_parities`) fix the radius, the largest coordinate of their points
    nearest 0, so the box of that radius meets G_J iff G_J is nonempty.
    Each such parity contributes its first GJ_POINT_LIMIT points of that
    box in block-sum order, from a copy of its region with the coordinate
    bounds clamped to the box.  The GJ_POINT_LIMIT smallest of those are
    listed, so both parities show.  The first point is re-checked by the
    literal route (`_gj_recheck`)."""
    found = _gj_parities(s, j_facets)
    outside = tuple(sorted(set(j_facets)))
    if not found:
        return GJResult(outside, "empty")
    radius = max(max(map(abs, x)) for _, x in found)
    points: list[Vec] = []
    for region, _ in found:
        lo = [max(v, -radius) for v in region.lo]
        hi = [min(v, radius) for v in region.hi]
        points.extend(replace(region, lo=lo, hi=hi).enumerate_points(GJ_POINT_LIMIT))
    points = sorted(points)[:GJ_POINT_LIMIT]
    mult = _gj_recheck(s, j_facets, points[0])
    return GJResult(outside, "nonempty", tuple(points), radius, mult)


def gj_empty(s: AffineSemigroup, j_facets: Sequence[FacetId]) -> GJResult:
    """Emptiness of G_J = (intersection of S_F, F outside J) minus (union of
    S_F, F in J), decided exactly, with each S_F read from the semigroup's
    closed forms (`build_profiles`).  A nonempty answer lists up to
    GJ_POINT_LIMIT points of the box `_gj_scan` proves; its first point is
    re-checked by the literal route."""
    j_facets = tuple(j_facets)
    if any(f not in s.facets for f in j_facets):
        raise ValueError("unknown facet in J")
    repeated = sorted({f for f in j_facets if j_facets.count(f) > 1})
    if repeated:
        raise ValueError(f"repeated facets in J: {[f.label() for f in repeated]}")
    if not j_facets or len(j_facets) >= len(s.facets):
        raise ValueError("J must be a proper nonempty subset of the facet set")
    return _gj_scan(s, j_facets)


# ---------------------------------------------------------------------------
# The Cohen-Macaulay verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CMVerdict:
    status: str  # "cm" | "not-cm" | "undetermined"
    reason: str
    sprime: Optional[SPrimeResult] = None
    bound: int = 0  # the largest re-check multiple N* it used

    @property
    def is_cm(self) -> bool:
        return self.status == "cm"


def cm_verdict(s: AffineSemigroup, subset_cap: int = SUBSET_CAP) -> CMVerdict:
    """Cohen-Macaulay iff S' = S and every proper nonempty facet subset J has
    G_J empty or pi_J acyclic.

    The one loop visits the least mask of each orbit of the block symmetries
    whose subsets hold all or none of each block's coordinate facets
    (`_orbit_masks`), in increasing order, and stops at the
    first refuting J.  A J refutes with its whole orbit, so that J is the
    first refuting one of the full mask order.  Every other J gives a cone
    (`_pi_shape`), which is acyclic and never refutes, so skipping it moves
    no answer.  pi_J's acyclicity is exact (`_pi_acyclicity`), and G_J is
    decided only where pi_J is not acyclic, in closed form with no walk
    (`_gj_parities`): a nonempty G_J refutes with its point nearest 0 of
    the first parity that has one.  S' = S reads the semigroup's normality
    verdict and its witness (`s_prime_equals_s`).  Every witness is
    re-checked by the literal route (`_sf_facets`), whose multiple N* the
    verdict keeps, and each S_F is read from `build_profiles`.  The subset
    cap is the verdict's only resource limit.
    """
    if not s.facets:
        return CMVerdict("cm", "zero semigroup: polynomial ring")
    sprime = s_prime_equals_s(s)
    if not sprime.holds:
        reason = f"localized intersection exceeds the semigroup at {list(sprime.witness)}"
        return CMVerdict("not-cm", reason, sprime, sprime.bound)
    nf = len(s.facets)
    if nf > subset_cap:
        return CMVerdict("undetermined", f"{nf} facets exceed the subset cap {subset_cap}", sprime)
    for jmask in _orbit_masks(s):
        if _pi_acyclicity(s, jmask)[0]:
            continue
        j_facets = _mask_facets(s, jmask)
        if found := _gj_parities(s, j_facets):
            (_, x), *_ = found
            return CMVerdict(
                "not-cm",
                f"J={_mask_labels(s, jmask)} has a non-acyclic complex "
                f"and a nonempty region (witness {list(x)})",
                sprime, _gj_recheck(s, j_facets, x),
            )
    return CMVerdict(
        "cm",
        "localized intersection equals the semigroup and every facet subset "
        "is empty-or-acyclic",
        sprime,
    )


def j_record(s: AffineSemigroup, jmask: int) -> dict:
    """The `--evidence` record of the facet subset J of this mask: pi_J's
    maximal faces, its reduced homology ranks over Q and acyclicity, both
    from the verdict's own `_pi_acyclicity`, and its G_J scan.  A void or
    coned-off complex is acyclic and builds nothing: its ranks are 0 in
    degrees -1 up to its dimension, the largest maximal face less one, and
    the void complex has none.  A nonzero Euler characteristic makes it
    not acyclic, with no ranks and no build.  Any other pi_J reports the
    ranks its state complex gives, built once.  A J that fills a block in
    part is a cone."""
    j_facets = _mask_facets(s, jmask)
    maximal = _pi_maximal(s, jmask)
    gj = _gj_scan(s, j_facets)
    acyclic, ranks = _pi_acyclicity(s, jmask)
    if acyclic and ranks is None:
        ranks = [0] * (max((m.bit_count() for m in maximal), default=-1) + 1)
    return {
        "J": _mask_labels(s, jmask),
        "pi_maximal_faces": [_mask_labels(s, m) for m in maximal],
        "homology_ranks": ranks,
        "acyclic": acyclic,
        "gj_status": gj.status,
        "gj_points": [list(p) for p in gj.points],
    }


def j_records(s: AffineSemigroup) -> tuple[list[dict], Optional[str]]:
    """The `j_record` of each J the loop of `cm_verdict` visits, the least
    of each orbit that fills or misses every block (`_orbit_masks`), in
    the same order, up to the first G_J scan over the engine budget, whose
    reason comes back (else None).  Every orbit left out is a cone, so it
    has no record and no count."""
    records: list[dict] = []
    for jmask in _orbit_masks(s):
        try:
            records.append(j_record(s, jmask))
        except EngineOverflow as err:
            labels = _mask_labels(s, jmask)
            return records, f"region scan over budget for J={labels}: {err}"
    return records, None


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
    reason: str = ""
    radius: int = 0  # the radius of the box of the top of G_F, 0 when none
    bound: int = 0  # the largest re-check multiple N* of x0, 0 when none

    @property
    def is_consistent(self) -> bool:
        return self.status == "consistent"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "x0": list(self.x0) if self.x0 else None,
            "max_sum_points": [list(p) for p in self.max_sum_points],
            "coordwise_sup": list(self.coordwise_sup) if self.coordwise_sup else None,
            "sup_in_group": self.sup_in_group,
        }


def _gf_top_region(s: AffineSemigroup) -> Optional[Region]:
    """The elements of G_F of largest total a, as one region in an exact
    box, or None when G_F is empty or the totals of G_F, or a coordinate at
    the top, are unbounded; on a cone with facets it never is.

    G_F is cut out by the caps that exclusion from every S_F puts on the
    facet values (`_apply_exclusion_atom`) and by the group, so each parity of it is
    a region with no box, whose exact range of totals gives a
    (`Region.total_range`; the parities never share a total).  At total a
    each block sum has its exact interval (`Region.sum_ranges`); a position
    without a coordinate facet is alone in its block, so the top of that
    interval bounds it, and every other coordinate has its cap.  With every
    coordinate at most hi_p, x_p = a - (the other coordinates) >= a - (the
    sum of the other hi_q) =: lo_p, so the box [lo, hi] at total a holds
    every element of G_F there.  On a point of total a with x <= hi these
    lower bounds never bind, so the points with block sums t number prod_i
    C(H_i - t_i + b_i - 1, b_i - 1), H_i the sum of hi over block i, as
    `gorenstein_witness` counts them.

    Why a region comes back on every cone with facets.  The top local
    cohomology H^d_m(k[S]), d = rank >= 1, is the cokernel of the last map
    of Ishida's complex, from the sum of the k[S_F] to k[G], so it has a
    basis indexed by G_F in the degrees of its totals (Trung-Hoa).  It is
    nonzero (Grothendieck) and Artinian, so its graded pieces are finite
    and vanish above its a-invariant: G_F is nonempty, its totals are
    bounded by a, and it has finitely many elements at total a.  So the
    region of largest top has the finite top a.  At its parity S itself has
    points (the region's totals meet the group's parity, and an odd total
    in the group needs sum(a) >= 3, hence an odd generator), so every S_F
    has a threshold there and every coordinate with a facet has a finite
    cap.  A position without one is alone in its block, and its sum takes
    every value of the interval `sum_ranges` gives at total a, so a finite
    set leaves that interval a finite top.  No case returns None, which
    needs no Cohen-Macaulay premise.
    """
    regions = difference_regions(s, (), s.facets)
    ends = [(totals[1], r) for r in regions if (totals := r.total_range()) is not None]
    a, region = max(ends, key=lambda end: end[0], default=(math.inf, None))
    if a == math.inf:
        return None
    tops = [top for _, top in region.sum_ranges(a)]
    hi = [
        min(h, tops[i - 1]) if s.params.b[i - 1] == 1 else h
        for h, (i, _) in zip(region.hi, s.params.indices())
    ]
    if math.inf in hi:
        return None
    region.lo, region.hi = [a - sum(hi) + h for h in hi], hi
    region.total_lo = region.total_hi = a
    return region


def gorenstein_witness(s: AffineSemigroup) -> GorensteinResult:
    """Gorenstein verdict of a Cohen-Macaulay semigroup ring (callers must
    have checked CM): is G_F = x0 - S for some x0?

    The elements of G_F of largest total a lie in one exact box
    (`_gf_top_region`).  The h-vector (`_h_vector`), counted in closed form
    up to D = a + 2d with d the rank (`_hilbert_counts`, no membership
    question per block-sum tuple), ends with the number h_D of those
    elements; one walk of the box counts them by their block sums.  Since
    zero is the unique semigroup element of minimal total, a valid x0 is
    the unique one: h_D != 1 refutes, with the componentwise supremum of
    those h_D elements as evidence; otherwise the ring is Gorenstein iff h
    is a palindrome (Stanley), and x0 is re-checked in G_F by the literal
    route (`_sf_facets`).  Only x0, or the first four elements of a tie,
    are built.  Only the engine budget leaves the answer "undetermined".

    Three stages cannot fail here, so each raises `RuntimeError` if it
    does, as a failed witness re-check does:

    * no region of the top of G_F: `_gf_top_region` returns one on every
      cone with facets (proof in its docstring);
    * an h-vector that is negative or runs past degree D: a Cohen-Macaulay
      k[S] is free over a system of parameters of d forms of degree 2, so h
      has nonnegative coefficients and degree D exactly (`_h_vector`);
    * a count at total a other than h_D: over that system of parameters
      the top local cohomology is the sum of shifted copies of that of a
      polynomial ring, one per basis element, so its piece of top degree a
      has dimension h_D, and its pieces are indexed by G_F (`_h_vector`).
    """
    if not s.facets:
        zero = (0,) * s.n
        return GorensteinResult(
            "consistent", zero, (zero,), zero, True,
            reason="zero semigroup: the model is a point",
        )
    region = _gf_top_region(s)
    if region is None:
        raise RuntimeError("the top of G_F is not one finite box")
    a, d = region.total_hi, s.rank
    h = _h_vector(s, a + 2 * d)
    if h is None:
        raise RuntimeError(f"the h-vector is negative or runs past degree a + 2d = {a + 2 * d}")
    h_top, b, tops = h[-1], s.params.b, s.params.block_sums(region.hi)
    try:
        count = sum(
            math.prod(math.comb(top - t + bi - 1, bi - 1) for top, t, bi in zip(tops, sums, b))
            for sums in region._feasible_sums()
        )
        points = region.enumerate_points(4)
    except EngineOverflow as err:
        return GorensteinResult("undetermined", reason=f"region scan over budget: {err}")
    if count != h_top:
        raise RuntimeError(f"G_F has {count} elements at total a = {a}, but h_D = {h_top}")
    radius = max(map(abs, region.lo + region.hi))
    if h_top != 1:
        sup = region.max_coordinate()
        return GorensteinResult(
            "refuted", None, tuple(sorted(points)), sup, s.group_member(sup),
            reason=f"{h_top} extremal elements share the maximal coordinate sum",
            radius=radius,
        )
    (x0,) = points
    inside, mult = _sf_facets(s, x0)
    if inside:
        raise RuntimeError("extremal witness fails the literal re-check in G_F")
    symmetric = h == h[::-1]
    return GorensteinResult(
        "consistent" if symmetric else "refuted", x0, (x0,),
        reason=f"the h-vector {h} of the Hilbert series over (1 - t^2)^{d} is "
        f"{'' if symmetric else 'not '}symmetric (Stanley)",
        radius=radius, bound=mult,
    )


def _binomial_row(c: int, top: int) -> list[int]:
    """C(t + c - 1, c - 1) for t = 0, ..., top, the nonnegative points of c
    coordinates with sum t, each entry made from the one before ([t = 0]
    for c = 0)."""
    row = [1]
    for t in range(1, top + 1):
        row.append(row[-1] * (t + c - 1) // t)
    return row


def _hilbert_counts(s: AffineSemigroup, top: int) -> list[int]:
    """#S_m for m = 0, ..., top, in closed form: no membership question is
    asked of any block-sum tuple.

    A nonnegative point lies in S iff its block sums do
    (`SemigroupMembership._decide_sums`): they lie in the cone and the
    group, and at odd total the point is no hole.  Every cone point of the
    group of even total is a member, and the cone points of the group
    outside S are exactly the holes m e_j (m odd, a_j >= 2, and m = 1
    unless a_j = 2; proof in `membership.find_holes`).  So #S_m is the
    count of the nonnegative points of total m in the cone and the group,
    less the points of the holes of total m.  With W_i[t] the points of
    block i of sum t and R_i[u] those of the other blocks of sum u, by form:

    * zero group: [m = 0];
    * balanced group (two blocks of degree one): the cone pins both block
      sums to m / 2, so W_1[m / 2] W_2[m / 2] at even m, else 0;
    * even group (one block of degree two): the cone is the orthant, so
      every point of even total, and the group has no odd point, hence no
      hole;
    * full group: every point of total m, less those outside the cone, the
      points with t_i > m / 2 on a block i of degree one (no point has two
      such blocks, so the sets are disjoint), sum over t > m / 2 of W_i[t]
      R_i[m - t]; then, at odd m, less W_j[m] for each block j of a hole
      m e_j.

    Each hole term is re-checked as `find_holes` re-checks its witness
    (`membership._recheck_hole`: in the cone and the group, and no sum of
    generators by the knapsack); one memo serves the count, so each m e_j
    reads (m - 2) e_j.
    """
    params, form = s.params, s.group_form
    if form.zero:
        return [int(m == 0) for m in range(top + 1)]
    if form.pinned:
        w1, w2 = (_binomial_row(bi, top) for bi in params.b)
        return [w1[m // 2] * w2[m // 2] if m % 2 == 0 else 0 for m in range(top + 1)]
    counts = _binomial_row(s.n, top)
    if form.parity is not None:
        return [c if m % 2 == 0 else 0 for m, c in enumerate(counts)]
    for i in params.balance_blocks:
        w, r = _binomial_row(params.b[i - 1], top), _binomial_row(s.n - params.b[i - 1], top)
        for m in range(top + 1):
            lo = m // 2 + 1  # the least t > m / 2
            counts[m] -= sum(map(operator.mul, w[lo : m + 1], reversed(r[: m - lo + 1])))
    memo: dict[tuple[int, ...], bool] = {}
    for j in range(params.k):
        if params.a[j] < 2:
            continue
        w = _binomial_row(params.b[j], top)
        last = top if params.a[j] == 2 else min(top, 1)
        for m in range(1, last + 1, 2):
            _recheck_hole(s, tuple(m if l == j else 0 for l in range(params.k)), memo)
            counts[m] -= w[m]
    return counts


def _h_vector(s: AffineSemigroup, degree: int) -> Optional[list[int]]:
    """h_0, ..., h_degree of the numerator h of the Hilbert series of k[S],
    graded by coordinate total, over (1 - t^2)^d with d = s.rank; None when
    h_(degree + 1) != 0 or some h_j < 0, which no Cohen-Macaulay k[S] gives
    at degree a + 2d (below).

    The counts #S_0, ..., #S_(degree + 1) come in closed form
    (`_hilbert_counts`), and h is their series times (1 - t^2)^d, cut
    after degree + 1: d passes of h_j -= h_(j - 2), each reading the h
    of the pass before.

    Why `gorenstein_witness` passes a + 2d, a the largest total of G_F: the
    generators of total two span every extreme ray
    (`sum_two_masks`), so k[S] is finite over its degree-2 part and has a
    system of parameters of d forms of degree 2.  If k[S] is Cohen-Macaulay,
    it is free over the polynomial ring A they generate, on a basis of
    degrees e_1, ..., e_r, so h = sum of t^(e_j) has nonnegative
    coefficients.  The top local cohomology of A is one-dimensional in its
    top degree -2d, and that of k[S] is the sum of its copies shifted by the
    e_j: its top degree is max(e_j) - 2d, and its piece there has dimension
    #{j : e_j = max(e_j)}.  Its pieces are indexed by G_F, by total
    (`_gf_top_region`), so that top degree is a, the a-invariant, h has
    degree D = a + 2d, and h_D counts the elements of G_F at total a.  k[S]
    is Gorenstein iff h_0 .. h_D is a palindrome (Stanley, Adv. Math. 28,
    1978; Bruns-Herzog, Cohen-Macaulay Rings, 4.4).
    """
    if degree < 0:
        return None  # h_0 = 1 lies past the degree
    h = _hilbert_counts(s, degree + 1)
    for _ in range(s.rank):
        h[2:] = map(operator.sub, h[2:], h[:-2])
    if h[-1] or min(h) < 0:
        return None
    return h[:-1]


@dataclass(frozen=True)
class StanleyResult:
    """The Gorenstein verdict of a normal semigroup by Stanley's criterion
    (`stanley_gorenstein`), with the witness -x0 when it holds."""

    is_gorenstein: bool
    witness: Optional[Vec] = None
    reason: str = ""
    bound: int = 0  # the largest re-check multiple N* of the witness, 0 when none

    def to_dict(self) -> dict:
        return {
            "route": "Stanley",
            "status": "consistent" if self.is_gorenstein else "refuted",
            "x0": list(self.witness) if self.witness is not None else None,
        }


def stanley_gorenstein(s: AffineSemigroup) -> StanleyResult:
    """Gorenstein verdict of a normal semigroup with facets (callers must
    have certified normality), by one region query.

    For normal S the interior points of the cone in the group are the
    canonical module, and the ring is Gorenstein iff they are one shifted
    copy x0 + S: iff some x0 of the group has sigma_F(x0) = 1 on every facet
    F, where sigma_F is the facet functional divided by g_F, the gcd of its
    values on the group (`FacetClass.gcd`; Stanley; Bruns-Herzog,
    *Cohen-Macaulay Rings*, ch. 6).  Then -x0 is the largest element of G_F, the witness the
    facet criterion reports, and -x0 + S = G_F.

    The facets pin w = -x0: a coordinate facet at position p fixes w_p =
    -g_F, the balance facet of block i fixes total - 2 s_i = -g_F, and every
    other coordinate is alone in its block (`model.sum_two_masks`, fact (2))
    and unbounded.  One `Region.of_group` per total parity holds the group
    points with those values; its range of totals (`Region.total_range`)
    and its point of that total (`Region.point_of_total`) give w, or prove
    that none exists, and the ring is Gorenstein iff w exists.  The facet
    functionals span the dual of the group, so w is unique: a wider range of
    totals, a block sum free at that total, or a point at both parities
    raises.  Every facet value of w is substituted back, and w is re-checked
    in G_F by the literal route (`_sf_facets`), finding w in no S_F.  The
    gcds and clamps are read once per facet class.
    """
    params, classes = s.params, s.facet_classes
    if not all(c.gcd for c in classes):
        raise RuntimeError("a facet vanishes on the group")
    starts = params.block_starts
    lo, hi = [-math.inf] * s.n, [math.inf] * s.n
    for c in classes:
        if c.kind == "coord":
            start, end = starts[c.block - 1], starts[c.block]
            lo[start:end] = hi[start:end] = [-c.gcd] * (end - start)
    found = []
    for parity in (0, 1):
        region = Region.of_group(s, lo.copy(), hi.copy(), parity)
        for c in classes:
            if c.kind == "balance":
                region.clamp_balance_lo(c.block, -c.gcd)
                region.clamp_balance_hi(c.block, -c.gcd)
        ends = region.total_range()
        if ends is None:
            continue
        if ends[0] != ends[1] or any(lo != hi for lo, hi in region.sum_ranges(ends[0])):
            raise RuntimeError("sigma_F(x0) = 1 on every facet does not pin one point")
        found.append(region.point_of_total(ends[0]))
    if len(found) > 1:
        raise RuntimeError("sigma_F(x0) = 1 on every facet has a point at both parities")
    if not found:
        return StanleyResult(
            False,
            reason="normal, and no group point x0 has sigma_F(x0) = 1 on every facet: "
            "the region of -x0, each facet value pinned to -g_F, is empty (Stanley)",
        )
    (witness,) = found
    if any(facet_value(params, f, witness) != -c.gcd for c in classes for f in c.facets):
        raise RuntimeError("Stanley witness fails substitution")
    inside, mult = _sf_facets(s, witness)
    if inside:
        raise RuntimeError("Stanley witness fails the literal re-check in G_F")
    return StanleyResult(
        True, witness,
        reason="normal, and x0 = -witness solves sigma_F(x0) = 1 on every facet "
        "(Stanley); the witness is re-checked in G_F by one membership call per "
        "facet at a proved multiple",
        bound=mult,
    )
