"""Exact search over lattice regions cut out by coordinate intervals,
balance-functional intervals, a total-sum parity and optional bounds on
the total.

Every scan the facet criterion and the normality test need (holes,
difference regions of localized semigroups and their extremal elements)
reduces to regions of this shape, because the group, the balance
functionals and semigroup membership of a nonnegative point only see block
sums.  The group reaches the engine through `Region.of_group` as the
parity and pinned balances of `model.GroupForm`.  The solver enumerates
block-sum tuples, with per-coordinate interval constraints folded into
per-block sum ranges, and then realizes each tuple as points.  The hole
searches walk nothing: every hole has one nonzero block sum, so the first
is read in closed form, and only a narrowed search (`membership.find_holes`
with `narrow`) reads a region over [0, inf)^n, block by block, realizing
its hole as `_greedy_point` does.

The tuples come from a depth-first walk over the blocks that carries the
interval of totals still allowed (reachable, within the total bounds,
inside every fixed block's balance interval, of the right parity) and
opens no value that leaves it empty, so every leaf is a tuple of the
region.  The walk still has dead ends: a value's interval reads the
balance bounds of the blocks fixed so far, one at a time, and the bounds
of two later blocks can together need more of an earlier block than
either alone.  On (1,1,1),(1,1,1) with every coordinate in [0, 5] and the
balances of blocks 2 and 3 at least 3, those two balances sum to 2 s_1,
so all 46 tuples have s_1 >= 3, yet block 1 opens all six values 0..5.
The total bounds prune inside the walk: a walk capped at total T opens no
value whose partial total, with the least sums of the blocks after it,
passes T, however wide the box.  The walk yields the tuples in the
lexicographic order of the box product of the block ranges, the order of
filtering that product, so first points and listings do not depend on
the pruning.  ENGINE_BUDGET bounds the number of values the walk opens at
each level, one level per block: inner nodes above the last level, leaves
at it.  The walk raises EngineOverflow as soon as one level passes the
budget.  Level j opens at most the product of the first j block ranges,
so no search whose box product is within the budget is refused, and a
walk over k blocks opens at most k * ENGINE_BUDGET values.

`max_total` keeps the largest total by comparison over the walk, and
`max_coordinate` reads the largest value of every coordinate off the
largest sum each block takes in one walk.

A region's totals need no walk and no box (`total_range`, `sum_ranges`,
`point_of_total`, where coordinate bounds may be infinite): at a fixed
total each block sum ranges over an interval of its own, whose ends are
piecewise linear in the total with one breakpoint each, so the totals
form an interval whose ends are solved, in closed form, on the lines
through the pieces between the breakpoints.  The facet criterion decides
each G_J by them, and finds the top of G_F, so that every box it walks
has a proved radius; the total bounds `total_lo` and `total_hi` then fix
the top slice of G_F inside the walk.  Stanley's criterion reads off them
the one point -x0 whose facet values the facets pin, or proves that there
is none.

The points of one tuple come from one lazy walk over the n positions, on
an explicit stack (n reaches 800 on the (2),(b) ladder).  Each position
opens only the values that leave the rest of its block able to make the
block's sum, so every value opened leads to a point.  The walk yields the
points in lexicographic order; `enumerate_points` and `max_total` take
them from it up to their limit.  `find_point` takes the lexicographically
largest point, the walk's last, with no walk: it fills each block
greedily from its first coordinate and stops once the block's slack is
spent (`_greedy_point`), which takes infinite upper bounds.  All
arithmetic is exact (Python ints); the walks need finite coordinate
bounds, and their enumeration is complete within the box, so emptiness
answers are certificates for the box.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .lattice import Vec
from .model import AffineSemigroup, SVParams


ENGINE_BUDGET = 5_000_000


class EngineOverflow(Exception):
    """The block-sum walk opened more than ENGINE_BUDGET values at one level."""


def _nearest_zero(target: int, bounds: list[tuple]) -> list[int]:
    """Integers v_i with lo_i <= v_i <= hi_i (infinite bounds allowed) and
    sum target: each starts at the value of its interval nearest 0 and
    moves, in order, only as far as the sum still needs.  The intervals
    must admit the target."""
    values = [max(lo, min(hi, 0)) for lo, hi in bounds]
    rest = target - sum(values)
    for i, (lo, hi) in enumerate(bounds):
        moved = max(lo, min(hi, values[i] + rest))
        rest, values[i] = rest + values[i] - moved, moved
    return values


def _sum_at_most(floors: list, rises: list, parity: int) -> tuple:
    """The interval [low, high] of m, its ends possibly infinite and low >
    high where it is empty, on which sum_i max(l_i, m + r_i) <= parity +
    2m; each l_i and r_i is an int or -inf.

    The sum of the maxima is the largest sum that takes m + r_i on some
    blocks and l_i on the others.  With j blocks on m, the largest such sum
    takes the j blocks of largest r_i - l_i, those of the j least
    breakpoints l_i - r_i: it is the line of the piece of the sum past just
    those breakpoints.  So the inequality holds iff it holds on each of
    these k + 1 lines, base_j + (j - 2) m <= parity: each holds on a
    half-line, all of m or none, read with floor division.  A block with
    l_i = -inf is always on m, one with r_i = -inf never, and one with
    both makes the sum -inf."""
    if any(l == r == -math.inf for l, r in zip(floors, rises)):
        return -math.inf, math.inf
    on = [r for l, r in zip(floors, rises) if l == -math.inf]
    free = [(l, r) for l, r in zip(floors, rises) if -math.inf not in (l, r)]
    base = sum(on) + sum(l for l, r in zip(floors, rises) if l != -math.inf)
    gains = sorted((r - l for l, r in free), reverse=True)
    low, high = -math.inf, math.inf
    for j, gain in enumerate([0, *gains]):
        base += gain
        slope, room = len(on) + j - 2, parity - base
        if slope > 0:
            high = min(high, room // slope)
        elif slope < 0:
            low = max(low, -(room // -slope))
        elif room < 0:
            return math.inf, -math.inf
    return low, high


@dataclass
class Region:
    """Conjunction of constraints on x in Z^n:

    - lo[p] <= x[p] <= hi[p] per coordinate position,
    - balance_lo[i] <= total(x) - 2 * block_sum_i(x) <= balance_hi[i],
    - total(x) == total_parity mod 2 when total_parity is set,
    - total_lo <= total(x) when total_lo is set,
    - total(x) <= total_hi when total_hi is set.
    """

    params: SVParams
    lo: list[int]
    hi: list[int]
    balance_lo: dict[int, int] = field(default_factory=dict)
    balance_hi: dict[int, int] = field(default_factory=dict)
    total_parity: Optional[int] = None
    total_lo: Optional[int] = None
    total_hi: Optional[int] = None
    infeasible: bool = False

    @classmethod
    def of_group(
        cls, s: AffineSemigroup, lo: list[int], hi: list[int], total_parity: Optional[int] = None
    ) -> "Region":
        """The box [lo, hi] in the group of s at the given total parity,
        by default the group's; a parity the group forbids leaves the region
        infeasible.  The group's pinned balances lie in [0, 0], and the
        coordinates of the zero group are 0."""
        form = s.group_form
        parity = form.parity if total_parity is None else total_parity
        region = cls(s.params, lo, hi, total_parity=parity)
        region.infeasible = form.parity not in (None, parity)
        for i in form.pinned:
            region.clamp_balance_lo(i, 0)
            region.clamp_balance_hi(i, 0)
        if form.zero:
            region.lo, region.hi = [max(v, 0) for v in lo], [min(v, 0) for v in hi]
        return region

    def clamp_lo(self, pos: int, value: int) -> None:
        self.lo[pos] = max(self.lo[pos], value)

    def clamp_hi(self, pos: int, value: int) -> None:
        self.hi[pos] = min(self.hi[pos], value)

    def clamp_balance_lo(self, i: int, value: int) -> None:
        self.balance_lo[i] = max(self.balance_lo.get(i, value), value)

    def clamp_balance_hi(self, i: int, value: int) -> None:
        self.balance_hi[i] = min(self.balance_hi.get(i, value), value)

    # -- block-sum search -------------------------------------------------

    def _feasible_sums(self) -> Iterator[tuple[int, ...]]:
        """The block-sum tuples of the region, in the lexicographic order of
        the box product of the block ranges, by the pruned walk the module
        docstring describes.  Every leaf of the walk is a tuple of the
        region, though an inner node may lead to none."""
        if self.infeasible or any(map(operator.gt, self.lo, self.hi)):
            return
        parity = self.total_parity
        k = self.params.k
        first = list(self.params.block_sums(self.lo))
        last = list(self.params.block_sums(self.hi))
        suffix_lo = [0] * (k + 1)
        suffix_hi = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix_lo[j] = suffix_lo[j + 1] + first[j]
            suffix_hi[j] = suffix_hi[j + 1] + last[j]
        # An unset balance bound is the extreme value total - 2 * s_i takes
        # on the box, so every bound is a finite int and always applies.
        bal_lo = [
            self.balance_lo.get(j + 1, suffix_lo[0] - first[j] - last[j]) for j in range(k)
        ]
        bal_hi = [
            self.balance_hi.get(j + 1, suffix_hi[0] - first[j] - last[j]) for j in range(k)
        ]
        if any(lo > hi for lo, hi in zip(bal_lo, bal_hi)):
            return
        budget = ENGINE_BUDGET
        opened = [0] * k  # values opened so far at each level

        s = [0] * k
        # One frame per open level j: (values of s_j left, sum of s[:j], and
        # the allowed totals [low, high], rounded to the parity).
        frames: list[tuple[Iterator[int], int, int, int]] = []
        high = suffix_hi[0] if self.total_hi is None else min(suffix_hi[0], self.total_hi)
        low = suffix_lo[0] if self.total_lo is None else max(suffix_lo[0], self.total_lo)
        j, part = 0, 0
        while True:
            if parity is not None:
                low += (low - parity) % 2
                high -= (high - parity) % 2
            if low <= high:
                # Values of s_j keeping [part + s_j + suffix range], the
                # balance interval of block j shifted by 2 * s_j, and
                # [low, high] pairwise intersecting.
                rest_lo, rest_hi = suffix_lo[j + 1], suffix_hi[j + 1]
                v_lo = max(
                    first[j],
                    low - part - rest_hi,
                    part + rest_lo - bal_hi[j],
                    (low - bal_hi[j] + 1) // 2,
                )
                v_hi = min(
                    last[j],
                    high - part - rest_lo,
                    part + rest_hi - bal_lo[j],
                    (high - bal_lo[j]) // 2,
                )
                step = 1
                if j == k - 1 and parity is not None:
                    # The total is part + s_j here: keep its parity.
                    v_lo += (part + v_lo - parity) % 2
                    step = 2
                values = range(v_lo, v_hi + 1, step)
                opened[j] += len(values)
                if opened[j] > budget:
                    raise EngineOverflow(
                        f"block-sum walk opened more than {budget} values at block {j + 1}"
                    )
                frames.append((iter(values), part, low, high))
            # Advance to the next value of the deepest open level, yielding
            # leaves, until a level below it can be opened.
            while frames:
                values, part, low, high = frames[-1]
                j = len(frames) - 1
                v = next(values, None)
                if v is None:
                    frames.pop()
                    continue
                s[j] = v
                if j == k - 1:
                    yield tuple(s)
                    continue
                part += v
                low = max(low, part + suffix_lo[j + 1], bal_lo[j] + 2 * v)
                high = min(high, part + suffix_hi[j + 1], bal_hi[j] + 2 * v)
                j += 1
                break
            else:
                return

    # -- totals, with no walk; coordinate bounds may be infinite -----------

    def _block_ends(self) -> tuple[list, list, list, list]:
        """The constants (l, r, u, f) of the sums each block allows alone: at
        the total parity + 2m block i allows the sums from max(l_i, m + r_i)
        to min(u_i, m + f_i), where l_i and u_i are the sums of its
        coordinates' lower and upper bounds, r_i comes from its balance upper
        bound and f_i from its balance lower bound (-inf and inf where the
        balance is unbounded)."""
        p, parity, up, down = self.params, self.total_parity, self.balance_hi, self.balance_lo
        if any(map(operator.gt, self.lo, self.hi)):  # an empty coordinate interval
            return [1] * p.k, [-math.inf] * p.k, [0] * p.k, [math.inf] * p.k
        return (
            list(p.block_sums(self.lo)),
            [-((up[i] - parity) // 2) if i in up else -math.inf for i in range(1, p.k + 1)],
            list(p.block_sums(self.hi)),
            [(parity - down[i]) // 2 if i in down else math.inf for i in range(1, p.k + 1)],
        )

    def sum_ranges(self, total: int) -> list[tuple]:
        """The exact interval of each block sum over the points of this total,
        of the region's parity, in the box and the balance intervals: every
        interval is nonempty iff some point has this total.  Block i alone
        allows the sums between its ends (`_block_ends`); s_i also needs the
        other blocks to make the rest of the total, so it lies in [total -
        the other upper ends, total - the other lower ends], and every value
        of that cut interval extends to a point.  The total bounds are not
        read."""
        floors, rises, ceilings, falls = self._block_ends()
        m = (total - self.total_parity) // 2
        lows = [max(l, m + r) for l, r in zip(floors, rises)]
        highs = [min(u, m + f) for u, f in zip(ceilings, falls)]
        # Infinite ends all share a sign, so these sums never meet inf - inf.
        return [
            (max(lo, total - sum(highs[:i]) - sum(highs[i + 1:])),
             min(hi, total - sum(lows[:i]) - sum(lows[i + 1:])))
            for i, (lo, hi) in enumerate(zip(lows, highs))
        ]

    def total_range(self) -> Optional[tuple]:
        """The least and the largest total of the region's points, each
        infinite where the totals are unbounded, or None if the region is
        empty; exact, for a region with a total parity, in O(k log k)
        integer steps whatever the size of the bounds.

        Write the total T = parity + 2m and take the constants of
        `_block_ends`.  T is a total of the region iff (a) every block's
        ends are in order, (b) the lower ends sum to at most T and (c) the
        upper ends to at least T.  (a) is l_i <= u_i, r_i <= f_i and m in
        [max(l_i - f_i), min(u_i - r_i)].  The left side of (b) less 2m is
        convex in m and linear between the breakpoints l_i - r_i: it is the
        largest of the lines through its pieces (`_sum_at_most`), so (b)
        holds on the intersection of their half-lines, one interval.  (c)
        is (b) for the negated upper ends in -m.  So the totals are the
        interval where all three intervals meet."""
        if self.infeasible:
            return None
        floors, rises, ceilings, falls = self._block_ends()
        parity = self.total_parity
        if any(map(operator.gt, floors, ceilings)) or any(map(operator.gt, rises, falls)):
            return None
        below = _sum_at_most(floors, rises, parity)
        above = _sum_at_most([-u for u in ceilings], [-f for f in falls], -parity)
        low = max(max(map(operator.sub, floors, falls)), below[0], -above[1])
        high = min(min(map(operator.sub, ceilings, rises)), below[1], -above[0])
        if low > high:
            return None
        return parity + 2 * low, parity + 2 * high

    def point_of_total(self, total: int) -> Vec:
        """A point of this total, which the region must have (`sum_ranges`):
        each block sum, and each coordinate within its block, is the value
        nearest 0 its bounds allow, moved only as far as the sum needs."""
        sums = _nearest_zero(total, self.sum_ranges(total))
        return tuple(itertools.chain.from_iterable(
            _nearest_zero(t, [(self.lo[q], self.hi[q]) for q in self.params.block_positions(i)])
            for i, t in enumerate(sums, 1)
        ))

    # -- realizations ------------------------------------------------------

    def _greedy_point(self, s: tuple[int, ...]) -> Vec:
        """The lexicographically largest point with block sums s, the last of
        `_points`: each block starts at its lower bounds, and its positions,
        in order, each take as much of the slack, its sum less theirs, as
        their upper bounds allow, until none is left."""
        x = list(self.lo)
        starts = self.params.block_starts
        for start, end, target in zip(starts, starts[1:], s):
            slack = target - sum(x[start:end])
            for q in range(start, end):
                if not slack:
                    break
                step = min(self.hi[q] - x[q], slack)
                x[q] += step
                slack -= step
        return tuple(x)

    def _points(self, s: tuple[int, ...]) -> Iterator[Vec]:
        """The points with block sums s, in lexicographic order.

        Every block sum of a tuple from `_feasible_sums` lies between the
        sums of the block's lower and upper bounds, so every value a
        position opens leaves the rest of its block a sum it can make."""
        lo, hi, n = self.lo, self.hi, self.params.n
        # rest_lo[q], rest_hi[q]: the bound sums of the positions after q in
        # its block; head: the first position of each block, to its sum.
        rest_lo, rest_hi, head = [0] * n, [0] * n, {}
        for i, target in enumerate(s, 1):
            positions = self.params.block_positions(i)
            head[positions.start] = target
            for q in reversed(positions[1:]):
                rest_lo[q - 1] = rest_lo[q] + lo[q]
                rest_hi[q - 1] = rest_hi[q] + hi[q]
        x = [0] * n
        # One frame per open position: (its values left, the sum it and the
        # positions after it in its block must make).
        frames: list[tuple[Iterator[int], int]] = []
        q, rem = 0, head[0]
        while True:
            values = range(max(lo[q], rem - rest_hi[q]), min(hi[q], rem - rest_lo[q]) + 1)
            frames.append((iter(values), rem))
            while frames:
                values, rem = frames[-1]
                q = len(frames) - 1
                v = next(values, None)
                if v is None:
                    frames.pop()
                    continue
                x[q] = v
                if q == n - 1:
                    yield tuple(x)
                    continue
                q, rem = q + 1, head.get(q + 1, rem - v)
                break
            else:
                return

    # -- public queries ----------------------------------------------------

    def find_point(self) -> Optional[Vec]:
        """The lexicographically largest point of the first block-sum tuple
        (`_greedy_point`), or None if there is none."""
        for s in self._feasible_sums():
            return self._greedy_point(s)
        return None

    def enumerate_points(self, limit: int) -> list[Vec]:
        """Up to `limit` points, by increasing block-sum tuple (the order in
        which the block sums are generated); `limit` must be positive."""
        if limit < 1:
            raise ValueError(f"limit must be a positive integer, got {limit}")
        points = (x for s in self._feasible_sums() for x in self._points(s))
        return list(itertools.islice(points, limit))

    def max_total(self, point_limit: int = 4) -> tuple[Optional[int], int, list[Vec]]:
        """(max total sum, number of points at the max capped at point_limit+1,
        up to point_limit of those points)."""
        best: Optional[int] = None
        at_best: list[tuple[int, ...]] = []
        for s in self._feasible_sums():
            t = sum(s)
            if best is None or t > best:
                best, at_best = t, []
            if t == best:
                at_best.append(s)
        points = (x for s in at_best for x in self._points(s))
        found = list(itertools.islice(points, point_limit + 1))
        return best, len(found), found[:point_limit]

    def max_coordinate(self) -> Optional[Vec]:
        """The largest value of every coordinate over the region, or None if
        it is empty, from one walk: x[pos] reaches min(hi[pos], the largest
        sum of its block less the other lower bounds of the block)."""
        p, tops = self.params, None
        for s in self._feasible_sums():
            tops = s if tops is None else tuple(map(max, tops, s))
        if tops is None:
            return None
        # The largest sum of a block covers its lower bounds, so each value is
        # at least lo[pos].
        slack = [
            top - sum(self.lo[q] for q in p.block_positions(i)) for i, top in enumerate(tops, 1)
        ]
        return tuple(
            min(self.hi[q], self.lo[q] + slack[i - 1]) for q, (i, _) in enumerate(p.indices())
        )
