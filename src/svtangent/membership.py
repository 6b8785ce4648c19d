"""Exact decision procedures on the semigroup: membership, hole search,
normality and smoothness verdicts.

Membership is exact and unbounded.  The engine behind it is a memoized
search over block sums together with one structural fact about this family
of semigroups: every point of the cone with even coordinate sum is a sum
of generators of coordinate sum two.  Consequently a cone point with even
total sum is always a member, and an odd-sum point is a member iff some
odd-sum generator fits under it componentwise with the remainder still in
the cone.  The test suite proves the fact constructively
(`oracles.decompose` writes each member out as a sum of generators and
checks the sum), and its brute-force sum enumeration checks the search
against an independent oracle.

Holes (cone points of the group outside the semigroup) have odd total by
the same fact, and for nonnegative points the cone, the group and
membership only see block sums.  The closed form of odd membership
(`SemigroupMembership._odd_shape`) pins them down further: a hole has
exactly one nonzero block sum, odd, on a block of degree at least two, and
equal to 1 unless that degree is 2 (`find_holes` proves it).  So the holes
form a union of rays, and the first hole is e_p at the first position p
of the last block of degree two or more, when the group has points of odd
total (`find_holes` reads it with no region).  Only a narrowed search
reads a block-sum region of `regions.Region` over [0, inf)^n, off the
blocks one by one, with no walk and no box: the least hole of a block is
the least odd sum its bounds allow, so no search needs a radius or a cap
on the total.

Each semigroup has one engine, `AffineSemigroup.membership`, built on first
use; it also marks the S_F closed forms checked
(`hoatrung.build_profiles`).  Each also keeps its normality verdict,
`AffineSemigroup.normality`, decided by the first `is_normal` call, and
S' = S reads its witness before it runs a narrowed search.  The verdict
functions therefore take only the semigroup.  The literal S_F re-check
of every witness asks the engine once per facet class, at a multiple of
the facet's generator sum proved to decide it (`hoatrung._sf_scan`), so
it needs no bound either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .lattice import Vec
from .model import AffineSemigroup, _box_meets
from .regions import Region


class SemigroupMembership:
    """Exact membership for one semigroup.

    Instances are safe to share across threads: the memo cache and the S_F
    closed forms are only ever written with idempotent values.
    """

    def __init__(self, s: AffineSemigroup):
        # No reference back to s: the engine is cached on s, and a cycle
        # would keep both alive until the garbage collector runs.
        params = s.params
        self._params = params
        self._group_form = s.group_form
        self._balance_blocks = params.balance_blocks
        self._sum_memo: dict[tuple[int, ...], bool] = {}
        # The model's S_F thresholds (`AffineSemigroup.odd_thresholds`), set
        # by `hoatrung.build_profiles` once it has checked their premise.
        self.profiles: Optional[Mapping] = None

    def member(self, v: Sequence[int]) -> bool:
        self._params.check_length(v)
        if any(x < 0 for x in v):
            return False
        return self.sums_member(self._params.block_sums(v))

    __contains__ = member

    def sums_member(self, sums: tuple[int, ...]) -> bool:
        """Membership of any nonnegative point with these block sums."""
        cached = self._sum_memo.get(sums)
        if cached is None:
            cached = self._decide_sums(sums)
            self._sum_memo[sums] = cached
        return cached

    def _decide_sums(self, sums: tuple[int, ...]) -> bool:
        """Membership of any nonnegative point with these block sums.

        Placement inside a block never matters: cone and group constraints
        only see block sums, the even case is settled by the sum-two
        decomposition, and in the odd case a reducing generator of any
        feasible block-sum shape can be carved out of the point greedily.
        The group test is the form's own (`GroupForm.contains_sums`); on
        cone points only its parity can fail, since the cone test already
        pins the balances of the balanced group's two blocks of degree one
        and forces the zero group's total to 0.
        """
        if not (self._in_cone(sums) and self._group_form.contains_sums(sums)):
            return False
        if sum(sums) % 2 == 0:
            # Even-sum cone points decompose into sum-two generators; the
            # constructive proof is `oracles.decompose` in the test suite.
            return True
        return self._odd_shape(sums) is not None

    def _in_cone(self, sums: Sequence[int]) -> bool:
        """The cone test on the block sums of a nonnegative point: every
        balance functional, the total minus twice the sum of a block of
        degree one, is nonnegative."""
        total = sum(sums)
        return all(total - 2 * sums[i - 1] >= 0 for i in self._balance_blocks)

    def _odd_shape(self, sums: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The block sums of a generator of odd total that fits under these
        block sums, those of a cone point of odd total T, with the remainder
        still in the cone, or None if there is none.  Membership of an odd
        point depends only on its block sums, because any shape fitting under
        them can be placed greedily inside the blocks.

        Let u = min(a, sums), the room of each block, and F the balance
        blocks with beta_i = T - 2 sums_i = 1; each beta_i is odd, as T is,
        and nonnegative on the cone.  A shape t of total |t| leaves beta_i -
        |t| + 2 t_i on the balance of block i.  On a block of F that needs
        t_i >= (|t| - 1) / 2 with t_i <= a_i = 1, so |t| = 3 and t_i = 1:
        a shape of total 5 or more would need t_i >= 2 on a block of degree
        one.  Every other beta_i is at least 3, and any shape of total 3
        keeps it nonnegative.  A shape under u of odd total at least 3 has
        one of total 3 below it, so a shape fits iff the box 1 <= t_i <= u_i
        on F, 0 <= t_i <= u_i elsewhere, holds one of total 3 (`_box_meets`):
        iff u_i >= 1 on F and |F| <= 3 <= sum(u).  The one returned is 1 on
        F, filled greedily under u, block by block, up to total 3: the
        blocks of F come first, each with room 1."""
        total, room = sum(sums), list(map(min, self._params.a, sums))
        pinned = [i - 1 for i in self._balance_blocks if total - 2 * sums[i - 1] == 1]
        if not (all(room[i] for i in pinned) and _box_meets(len(pinned), sum(room), 3, 3)):
            return None
        shape, need = [0] * len(sums), 3
        for l in pinned + [l for l in range(len(sums)) if l not in pinned]:
            shape[l] = min(need, room[l])
            need -= shape[l]
        return tuple(shape)


def _sum_of_shapes(s: AffineSemigroup, sums: tuple[int, ...], memo: Optional[dict] = None) -> bool:
    """Whether the block sums of a nonnegative point are a sum of the block
    sums of generators, by a memoized knapsack: exactly when the point lies
    in S.  A sum of generators has the sum of their block sums; conversely,
    if sums = t_1 + ... + t_m with each t_l a generator's block sums, every
    block of the point splits greedily into m nonnegative parts of sums
    t_1i, ..., t_mi, and part l of every block makes a generator with block
    sums t_l.  The generators' block sums x under a tuple t are the tuples
    of the box 0 <= x_i <= min(a_i, t_i) of total at least 2, so the walk
    runs over the remainders t - x directly, and no list of them is kept.
    Calls that pass one `memo` share their sub-sums."""
    a = s.params.a
    memo = {} if memo is None else memo

    def reach(t: tuple[int, ...]) -> bool:
        if not any(t):
            return True
        if t not in memo:
            rests = itertools.product(*[range(max(0, tl - al), tl + 1) for al, tl in zip(a, t)])
            top = sum(t) - 2  # a generator's total is at least 2
            memo[t] = any(reach(rest) for rest in rests if sum(rest) <= top)
        return memo[t]

    return reach(sums)


def find_holes(
    s: AffineSemigroup, *, narrow: Optional[Callable[[Region], None]] = None
) -> Optional[Vec]:
    """The first hole of the group, or None, read off the blocks (see module
    doc).

    The holes are the points of one region of odd total
    (`Region.of_group`): coordinates in [0, inf) and every balance
    functional nonnegative, less the members.  `narrow`, when given,
    tightens the region's bounds in place, for example to the points lying
    in every S_F.  "First" is the order of the block-sum tuples,
    lexicographic, and the point is the lexicographically largest one with
    the first tuple's block sums (`Region._greedy_point`, which takes
    infinite upper bounds).

    The fact.  A hole is s e_j: its block sums are s on one block j and 0
    on the others, with a_j >= 2, s odd, and s = 1 unless a_j = 2.  Proof.
    Let T be the total of a hole, odd, and u = min(a, sums).  By
    `_odd_shape`, an odd cone point of the group is a member iff u_i >= 1
    on F, |F| <= 3 and sum(u) >= 3, F the balance blocks with T - 2 s_i =
    1.  At a hole with sum(u) >= 3 one of the first two fails: a block i of
    F with s_i = 0 gives T = 1, and |F| >= 4 gives |F|(T - 1)/2 <= T, so T
    = 1; either way sum(u) <= 1.  So every hole has sum(u) <= 2.  Now
    suppose a block i of degree one is nonzero.  Its balance T - 2 s_i >= 0
    at odd T gives s_i <= (T - 1)/2, so T >= 3 and the other blocks sum to
    at least 2.  If one block j holds all of it, then s_j >= 2: a_j = 1
    makes j's balance T - 2 s_j negative, so the point is outside the cone,
    and a_j >= 2 gives u_j >= 2; if two or more blocks share it, each adds
    at least 1 to sum(u).  Either way sum(u) >= 3.  So every nonzero block
    has a_j >= 2.  Two of them would each need u = 1, so s = 1, and no
    other nonzero block: T = 2, which is even.  So exactly one block j is
    nonzero, with s = T odd and u_j = min(a_j, s) <= 2: s = 1, or a_j = 2.
    Conversely, every such point of the group is a hole: it lies in the
    cone (every balance of a block of degree one is s >= 0, and j is no
    such block), its total is odd, and sum(u) = u_j <= 2 < 3.

    So the first hole is on the last block j that has one, at the least s:
    a tuple s e_j precedes every tuple that is nonzero on a block before j.
    With no `narrow` that is the last block of degree two or more, at s =
    1, when the group holds the odd total of e_j (it reads only the
    total), and there is no hole otherwise; the greedy point of e_j is e_p
    at the block's first position p.  It is returned with no region built.
    A narrowed region is read block by block.  Each block's sum ranges
    from the sum of its lower bounds to that of its upper ones, infinite
    where one is.  At s e_j the total is s, the balance of block j is -s
    and every other balance is s, so the region's bounds cut s to one
    interval, provided every other block can sum to 0; the least odd s in
    it is a hole iff it is 1 or a_j = 2.  Only the blocks of degree two or
    more are read (on a block of degree one the cone bound on its own
    balance, -s >= 0, leaves no s >= 1), each in O(k), and no membership
    question is asked.  Either way the witness is re-checked before it is
    returned: in the cone and the group, and no sum of generators by the
    knapsack `_sum_of_shapes`, which shares no code with `_odd_shape`.
    """
    k, a = s.params.k, s.params.a
    if narrow is None:
        j = max((l for l in range(k) if a[l] >= 2), default=None)
        sums = tuple(int(l == j) for l in range(k))
        if j is None or not s.group_form.contains_sums(sums):
            return None
        _recheck_hole(s, sums)
        return tuple(int(p == s.params.block_starts[j]) for p in range(s.n))
    region = Region.of_group(s, [0] * s.n, [math.inf] * s.n, total_parity=1)
    for i in s.params.balance_blocks:
        region.clamp_balance_lo(i, 0)
    narrow(region)
    if region.infeasible or any(lo > hi for lo, hi in zip(region.lo, region.hi)):
        return None
    lows, highs = s.params.block_sums(region.lo), s.params.block_sums(region.hi)
    floor, ceiling = region.balance_lo, region.balance_hi
    total_lo = -math.inf if region.total_lo is None else region.total_lo
    total_hi = math.inf if region.total_hi is None else region.total_hi
    stuck = [l for l in range(k) if lows[l] > 0]  # blocks that cannot sum to 0
    for j in reversed(range(k)):
        if a[j] < 2 or any(l != j for l in stuck):
            continue
        i = j + 1  # balances are keyed by block number
        low = max(1, lows[j], total_lo, -ceiling.get(i, math.inf),
                  *(v for l, v in floor.items() if l != i))
        high = min(highs[j], total_hi, -floor.get(i, -math.inf),
                   *(v for l, v in ceiling.items() if l != i))
        odd = low | 1  # the least odd value at least low
        if odd <= high and (odd == 1 or a[j] == 2):
            sums = tuple(odd if l == j else 0 for l in range(k))
            _recheck_hole(s, sums)
            return region._greedy_point(sums)
    return None


def _recheck_hole(s: AffineSemigroup, sums: tuple[int, ...], memo: Optional[dict] = None) -> None:
    """Raise unless the block sums of a hole of the closed form lie in the
    cone and the group and are no sum of generators by the knapsack
    `_sum_of_shapes`, which shares no code with `_odd_shape`.  Calls that
    pass one `memo` share the knapsack's sub-sums."""
    inside = s.membership._in_cone(sums) and s.group_form.contains_sums(sums)
    if not inside or _sum_of_shapes(s, sums, memo):
        raise RuntimeError(f"block sums {list(sums)} of the closed form are no hole")


@dataclass(frozen=True)
class NormalityVerdict:
    status: str  # "normal" | "not-normal"
    witness: Optional[Vec] = None

    @property
    def is_normal(self) -> bool:
        return self.status == "normal"

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def is_normal(s: AffineSemigroup) -> NormalityVerdict:
    """Normality = no points of (cone over the group) outside the semigroup,
    decided exactly by the unnarrowed `find_holes`, in closed form: e_p at
    the first position p of the last block of degree at least two, when the
    group holds its odd total, and "none" is a proof.  The semigroup keeps
    the verdict (`AffineSemigroup.normality`), so `classify`, `is_smooth`
    and `hoatrung.s_prime_equals_s` share it.
    """
    return s.normality


@dataclass(frozen=True)
class SmoothnessVerdict:
    status: str  # "smooth" | "not-smooth"
    reason: str

    @property
    def is_smooth(self) -> bool:
        return self.status == "smooth"

    def to_dict(self) -> dict:
        return {"verdict": self.status, "certified-by": self.reason}


def pair_span_pivots(
    pairs: Iterable[tuple[int, int]], n: int, loop_weight: Callable[[int], int]
) -> tuple[int, int]:
    """The rank and pivot product of one echelon pass over the vectors that
    `pairs` of positions in [0, n) stand for, e_p + e_q for p != q and
    loop_weight(p) * e_p (positive) for p = q, read off one union-find pass.

    They are the rows of the incidence matrix of a graph on the positions,
    with loops.  The edges that join two components make a spanning forest,
    on which the union-find keeps each position's parity, a sign sigma(v)
    that flips along each forest edge.  In a component C of c positions the
    c - 1 forest edges span the kernel K_C of phi_C(x) = sum of sigma(v) x_v
    over v in C (peel off a leaf u: x - x_u (e_u + e_w) vanishes at u).
    Every other element of C maps under phi_C to +- its closing weight: w
    for a loop of weight w, 2 for an edge that closes an odd cycle (sigma(p)
    = sigma(q)), 0 for one that closes an even cycle.  With g_C their gcd,
    C's vectors span the preimage of g_C Z: of rank c and index g_C in Z^C
    if g_C != 0, else K_C, of rank c - 1 and pivot product 1 (phi_C has a
    unit coefficient at C's last position).  The span is the direct sum of
    these, so its rank is n less the number of components with g_C = 0,
    lone positions included, and its pivot product that of the nonzero g_C.
    """
    parent = list(range(n))
    parity = [0] * n  # of the path to parent[v]
    closing = [0] * n  # per root: the gcd of its component's closing weights

    def find(v: int) -> tuple[int, int]:
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        odd = 0
        for u in reversed(path):  # compress, nearest the root first
            odd ^= parity[u]
            parity[u], parent[u] = odd, v
        return v, odd

    for p, q in pairs:
        root, odd = find(p)
        if p == q:
            weight = loop_weight(p)
        else:
            other, odd_q = find(q)
            if other != root:
                parent[other], parity[other] = root, odd ^ odd_q ^ 1
                weight = closing[other]
            else:
                weight = 2 if odd == odd_q else 0
        closing[root] = math.gcd(closing[root], weight)
    weights = [closing[v] for v in range(n) if parent[v] == v]
    return n - weights.count(0), math.prod(filter(None, weights))


def ray_span_index(s: AffineSemigroup) -> Optional[int]:
    """The index in the group of the span of the extreme rays' primitive
    generators in the group, or None when they span a smaller rank.

    The ray of a pair p != q of `s.ray_pairs` is e_p + e_q, of content 1
    and in the group; the ray of (p, p) is e_p when the group holds it,
    else 2 e_p, tested once per block on its unit block sums.  At equal
    rank the spans share their pivot columns, so the index is the ratio of
    the pivot products, the rays' off their pairs (`pair_span_pivots`) and
    the group's off its sparse basis (`AffineSemigroup.basis_pivots`).  By
    form: the full group (pivot product 1) and the even one (2) have rank
    n, so every component must be closed, with loops of weight 1 and 2;
    in the balanced group (rank n - 1, product 1) every ray is an edge
    across the two blocks, which 2-colour the graph, so every g_C is 0 and
    rank n - 1 means one spanning tree, of index 1; the zero group has no
    ray, and index 1.
    """
    k, block_of = s.params.k, s.params.block_of
    unit = [s.group_form.contains_sums([int(l == i) for l in range(k)]) for i in range(k)]
    rank, product = pair_span_pivots(
        s.ray_pairs, s.n, lambda p: 1 if unit[block_of(p) - 1] else 2
    )
    group_rank, group_product = s.basis_pivots
    return product // group_product if rank == group_rank else None


def is_smooth(s: AffineSemigroup) -> SmoothnessVerdict:
    """Smooth iff normal, the extreme rays are as many as the rank, and their
    primitive generators (primitive inside the group) form a group basis.

    The rays are counted before any is listed: `s.ray_count` is the number
    of masks `model.sum_two_masks` lists, one per extreme ray (a generator
    spans a ray iff its incidence mask is maximal among the generators'
    masks, which is exact because every facet is a coordinate or balance
    hyperplane), read off its rule: sum over the blocks with a_i >= 2 of
    b_i, plus sum over i < l of b_i b_l when a balance facet lies on block
    i or l or a_i = a_l = 1.  Only when the count equals the rank are the
    masks listed, and the index of the rays' span in the group is read off
    their pairs, with no ray vector built (`ray_span_index`); they form a
    basis iff it is 1.  Normality is the semigroup's kept verdict
    (`is_normal`).  The zero semigroup is a point, hence smooth.
    """
    if not s.facets:
        return SmoothnessVerdict("smooth", "zero semigroup: the model is a point")
    normal = is_normal(s)
    if not normal.is_normal:
        return SmoothnessVerdict("not-smooth", f"not normal: hole {list(normal.witness)}")
    if s.ray_count != s.rank:
        return SmoothnessVerdict("not-smooth", f"{s.ray_count} extreme rays for rank {s.rank}")
    index = ray_span_index(s)
    if index != 1:
        return SmoothnessVerdict(
            "not-smooth", f"ray generators span a sublattice of index {index}"
        )
    return SmoothnessVerdict("smooth", "primitive ray generators form a group basis")
