"""Exact decision procedures on the semigroup: membership, explicit
decompositions, hole search, normality and smoothness verdicts.

Membership is exact and unbounded.  The engine behind it is a memoized
search over block sums together with one structural fact about this family
of semigroups, proved constructively by `decompose`: every point of the
cone with even coordinate sum is a sum of generators of coordinate sum two.
Consequently a cone point with even total sum is always a member, and an
odd-sum point is a member iff some odd-sum generator fits under it
componentwise with the remainder still in the cone.  The brute-force sum
enumeration in the test suite checks the search against an independent
oracle.

Holes (cone points of the group outside the semigroup) have odd total by
the same fact, and for nonnegative points the cone, the group and
membership only see block sums.  `find_holes` therefore searches the box
[0, M]^n as one block-sum region of `regions.Region`, at the full window
radius; normality and the S' = S test of the facet criterion are both
answered by that search.  Membership is invariant under swapping the sums
of blocks with equal (a_i, b_i), so the search for the first hole walks
one block-sum tuple per orbit of those swaps.

Each semigroup has one engine, `AffineSemigroup.membership`, built on first
use; it also keeps the normality verdict of each window radius.  The verdict
functions therefore take only the semigroup and the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .lattice import Vec, smith_normal_form, vsub
from .model import (
    GROUP_BALANCED,
    GROUP_EVEN,
    GROUP_FULL,
    GROUP_ZERO,
    AffineSemigroup,
    SVParams,
    extreme_rays,
)
from .regions import EngineOverflow, Region


@dataclass(frozen=True)
class Window:
    """Box radius for bounded verdicts: the scanned box is [-M, M]^n, or
    [0, M]^n for scans restricted to the positive orthant."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("window radius must be positive")


def default_window(params: SVParams) -> Window:
    # All known minimal witnesses occur at coordinate sum <= max(a) + 1;
    # the factor leaves generous headroom at these instance sizes.
    return Window(2 * (max(params.a) + 2))


def default_bound(params: SVParams, window: Optional[Window] = None) -> int:
    """The coordinate-sum bound of the `sf_member` re-checks of every
    witness, derived from the window radius M as 6 * max(a) * M."""
    w = window or default_window(params)
    return 6 * max(params.a) * w.radius


class SemigroupMembership:
    """Exact membership and decomposition for one semigroup.

    Instances are safe to share across threads: the memo cache and the
    normality verdicts are plain dicts only ever written with idempotent
    values.
    """

    def __init__(self, s: AffineSemigroup):
        # No reference back to s: the engine is cached on s, and a cycle
        # would keep both alive until the garbage collector runs.
        params = s.params
        self._params = params
        self._generators = s.generators
        self._a = params.a
        self._k = params.k
        self._group_tag = s.group_tag
        self._balance_blocks = tuple(s.cone.balance_blocks)
        self._all_blocks = [
            tuple(params.block_positions(i)) for i in range(1, params.k + 1)
        ]
        # Odd block-sum shapes of candidate reducing generators: membership of
        # an odd-sum point depends only on its block sums, because any shape
        # fitting under them can be placed greedily inside the blocks.
        self._odd_shapes = [
            shape
            for shape in itertools.product(*(range(a + 1) for a in params.a))
            if sum(shape) % 2 == 1 and sum(shape) >= 3
        ]
        self._sum_memo: dict[tuple[int, ...], bool] = {}
        # Window radius -> the `is_normal` verdict of this semigroup.
        self.normality: dict[int, NormalityVerdict] = {}

    def member(self, v: Sequence[int]) -> bool:
        return self._decide(tuple(v))

    def __contains__(self, v: Sequence[int]) -> bool:
        return self._decide(tuple(v))

    def _block_sums(self, v: Vec) -> tuple[int, ...]:
        return tuple(sum(v[q] for q in block) for block in self._all_blocks)

    def _decide(self, v: Vec) -> bool:
        sums = []
        for block in self._all_blocks:
            t = 0
            for q in block:
                x = v[q]
                if x < 0:
                    return False
                t += x
            sums.append(t)
        return self.sums_member(tuple(sums))

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
        """
        if not self._in_cone(sums):
            return False
        total = sum(sums)
        tag = self._group_tag
        if tag == GROUP_EVEN:
            if total % 2:
                return False
        elif tag == GROUP_BALANCED:
            if 2 * sums[0] != total:
                return False
        elif tag == GROUP_ZERO:
            return total == 0
        if total % 2 == 0:
            # Even-sum cone points decompose into sum-two generators; the
            # constructive proof is `_decompose_even`, exercised by tests.
            return True
        return self._odd_shape(sums) is not None

    def _in_cone(self, sums: Sequence[int]) -> bool:
        """The cone test on the block sums of a nonnegative point: every
        balance functional, the total minus twice the sum of a block of
        degree one, is nonnegative."""
        total = sum(sums)
        return all(total - 2 * sums[i - 1] >= 0 for i in self._balance_blocks)

    def _odd_shape(self, sums: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The first odd block-sum shape of a generator fitting under these
        block sums with the remainder still in the cone, or None."""
        for shape in self._odd_shapes:
            if any(c > s for c, s in zip(shape, sums)):
                continue
            if self._in_cone([s - c for s, c in zip(sums, shape)]):
                return shape
        return None

    def decompose(self, v: Sequence[int]) -> Optional[list[Vec]]:
        """A witness decomposition of v into generators, or None.

        The returned list re-sums to v exactly; this is asserted before
        returning.
        """
        v = tuple(v)
        if not self.member(v):
            return None
        parts: list[Vec] = []
        rest = v
        if sum(v) % 2 == 1:
            g = self._odd_reducer(v)
            if g is None:
                raise RuntimeError("member with odd sum but no odd reduction")
            parts.append(g)
            rest = vsub(v, g)
        parts.extend(self._decompose_even(rest))
        total = tuple(map(sum, zip(*parts))) if parts else (0,) * len(v)
        if total != v:
            raise RuntimeError("decomposition does not re-sum to its input")
        genset = set(self._generators)
        if any(p not in genset for p in parts):
            raise RuntimeError("decomposition used a non-generator")
        return sorted(parts)

    def _odd_reducer(self, v: Vec) -> Optional[Vec]:
        """A generator of odd coordinate sum fitting under v with the
        remainder still in the cone: the shape of `_odd_shape`, placed
        greedily inside the blocks."""
        shape = self._odd_shape(self._block_sums(v))
        if shape is None:
            return None
        g = [0] * len(v)
        for need, block in zip(shape, self._all_blocks):
            for q in block:
                g[q] = min(need, v[q])
                need -= g[q]
        return tuple(g)

    def _decompose_even(self, v: Vec) -> list[Vec]:
        """Write an even-sum cone point as sum-two generators, constructively.

        Induction on half the coordinate sum: if all mass sits in one block
        that block has degree at least two and within-block pairs suffice;
        otherwise subtract a cross-block unit pair chosen to touch every
        block whose balance inequality is tight.
        """
        params = self._params
        n = params.n
        parts: list[Vec] = []
        work = list(v)
        if sum(work) % 2:
            raise ValueError("even-sum point required")
        while True:
            total = sum(work)
            if total == 0:
                return parts
            blocks_with_mass = [
                i for i in range(1, params.k + 1) if params.block_sum(work, i) > 0
            ]
            if len(blocks_with_mass) == 1:
                i0 = blocks_with_mass[0]
                positions = sorted(
                    params.block_positions(i0), key=lambda p: -work[p]
                )
                p1 = positions[0]
                p2 = positions[1] if len(positions) > 1 and work[positions[1]] > 0 else p1
                if p2 == p1 and work[p1] < 2:
                    raise RuntimeError("cannot pair mass inside one block")
                part = [0] * n
                part[p1] += 1
                part[p2] += 1
                parts.append(tuple(part))
                work[p1] -= 1
                work[p2] -= 1
                continue
            m = total // 2
            tight = [
                i
                for i in range(1, params.k + 1)
                if params.a[i - 1] == 1 and params.block_sum(work, i) == m
            ]
            picks: list[int] = []
            chosen_blocks: list[int] = []
            for i in tight[:2]:
                p = next(q for q in params.block_positions(i) if work[q] > 0)
                picks.append(p)
                chosen_blocks.append(i)
            for i in blocks_with_mass:
                if len(picks) == 2:
                    break
                if i in chosen_blocks:
                    continue
                p = next(q for q in params.block_positions(i) if work[q] > 0)
                picks.append(p)
                chosen_blocks.append(i)
            if len(picks) != 2:
                raise RuntimeError("could not pick a cross-block pair")
            part = [0] * n
            part[picks[0]] += 1
            part[picks[1]] += 1
            parts.append(tuple(part))
            work[picks[0]] -= 1
            work[picks[1]] -= 1


@dataclass(frozen=True)
class HoleSet:
    """Lattice points of the cone missed by the semigroup, inside a box."""

    ambient: tuple[Vec, ...]  # points of (cone in Z^n) \ semigroup
    group: tuple[Vec, ...]    # points of (cone in the group) \ semigroup


def find_holes(
    s: AffineSemigroup,
    window: Window,
    *,
    first: bool = False,
    narrow: Optional[Callable[[Region], None]] = None,
) -> HoleSet:
    """Exact holes inside [0, M]^n, M the window radius, as a block-sum
    search in the region engine.

    For x >= 0 the cone, the group and membership only see block sums, so
    the holes of the box form one region: coordinates in [0, M], every
    balance functional nonnegative, the group constraint, and the predicate
    "these block sums are not a member".  Only odd totals are searched,
    because every even-total point of the cone is a member (the constructive
    proof is `_decompose_even`).  Holes are listed by increasing (coordinate
    sum, point).  With `first`, only the group of `s` is searched: `group`
    holds at most the engine's first hole (`Region.find_point`) and
    `ambient` is empty.  That search tells the engine that the predicate is
    invariant under swapping the sums of blocks with equal (a_i, b_i), so it
    walks only the tuples non-decreasing within each run of blocks that stay
    equal in the region; the first hole is the one of the plain walk.
    `narrow`, when given, tightens the region's bounds in place, for example
    to the points lying in every S_F.  A walk that opens more values at one
    level than the engine budget raises `regions.EngineOverflow`.
    """
    sums_member = s.membership.sums_member
    n = s.n
    radius = window.radius

    def nonmember(sums: tuple[int, ...]) -> bool:
        return not sums_member(sums)

    def search(group_tag: str) -> tuple[Vec, ...]:
        region = Region(
            params=s.params,
            lo=[0] * n,
            hi=[radius] * n,
            balance_lo={i: 0 for i in s.cone.balance_blocks},
            group_tag=group_tag,
            total_parity=1,
            sum_predicate=nonmember,
        )
        if narrow is not None:
            narrow(region)
        if first:
            point = region.find_point(swap_invariant=True)
            return () if point is None else (point,)
        points = region.enumerate_points((radius + 1) ** n)  # the whole box
        return tuple(sorted(points, key=lambda v: (sum(v), v)))

    if first:
        return HoleSet((), search(s.group_tag))
    ambient = search(GROUP_FULL)
    group = ambient if s.group_tag == GROUP_FULL else search(s.group_tag)
    return HoleSet(ambient, group)


@dataclass(frozen=True)
class NormalityVerdict:
    status: str  # "normal" | "not-normal" | "undetermined"
    witness: Optional[Vec] = None
    window_radius: Optional[int] = None

    @property
    def is_normal(self) -> bool:
        return self.status == "normal"

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.status, "window": self.window_radius}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def is_normal(s: AffineSemigroup, window: Optional[Window] = None) -> NormalityVerdict:
    """Normality = no points of (cone over the group) outside the semigroup.

    The first hole of the group inside [0, M]^n refutes normality exactly;
    when there is none, the verdict "normal" is exact within the window and
    reported with its radius M.  The search walks one block-sum tuple per
    orbit of the swaps of equal blocks (see `find_holes`); a walk over the
    engine budget, counted in values opened per level, gives
    "undetermined".  The verdict is kept on the semigroup's membership
    engine, so the search runs once per semigroup and radius.
    """
    window = window or default_window(s.params)
    radius = window.radius
    verdicts = s.membership.normality
    if radius not in verdicts:
        try:
            holes = find_holes(s, window, first=True)
        except EngineOverflow:
            verdicts[radius] = NormalityVerdict("undetermined", window_radius=radius)
        else:
            verdicts[radius] = NormalityVerdict(
                "not-normal" if holes.group else "normal",
                witness=holes.group[0] if holes.group else None,
                window_radius=radius,
            )
    return verdicts[radius]


@dataclass(frozen=True)
class SmoothnessVerdict:
    status: str  # "smooth" | "not-smooth" | "undetermined"
    reason: str
    rays: tuple[Vec, ...] = ()

    @property
    def is_smooth(self) -> bool:
        return self.status == "smooth"

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.status, "certified-by": self.reason}
        if self.rays:
            out["rays"] = [list(r) for r in self.rays]
        return out


def is_smooth(s: AffineSemigroup, window: Optional[Window] = None) -> SmoothnessVerdict:
    """Smooth iff normal, the extreme rays are as many as the rank, and their
    primitive generators (primitive inside the group) form a group basis.

    The extreme rays are read off the facet-incidence table of the model
    (`model.extreme_rays`), at every n: a generator spans one iff its
    incidence mask is maximal among the generators' masks, which is exact
    because every facet is a coordinate or balance hyperplane.  Normality
    is `is_normal` over the same window, which searches once per semigroup
    and radius.  When normality is undetermined the ray test still refutes
    smoothness, but cannot confirm it.  The zero semigroup is a point,
    hence smooth.
    """
    if s.group_tag == GROUP_ZERO:
        return SmoothnessVerdict("smooth", "zero semigroup: the model is a point")
    normal = is_normal(s, window)
    if normal.status == "not-normal":
        return SmoothnessVerdict(
            "not-smooth", f"not normal: hole {list(normal.witness)}"
        )
    rays = extreme_rays(s)
    if len(rays) != s.rank:
        return SmoothnessVerdict(
            "not-smooth", f"{len(rays)} extreme rays for rank {s.rank}", rays
        )
    coords = [s.group.coordinates_of(r) for r in rays]
    if any(c is None for c in coords):
        raise RuntimeError("primitive ray generator outside the group")
    diag = smith_normal_form([list(c) for c in coords])
    if any(d != 1 for d in diag):
        return SmoothnessVerdict(
            "not-smooth", f"ray generators span a sublattice with invariants {diag}", rays
        )
    if not normal.is_normal:
        return SmoothnessVerdict("undetermined", "normality undetermined")
    return SmoothnessVerdict(
        "smooth", "primitive ray generators form a group basis", rays
    )
