"""Exact search over boxed lattice regions cut out by coordinate intervals,
balance-functional intervals, group membership, a total-sum parity and an
optional predicate on block sums.

Every scan the facet criterion needs (difference regions of localized
semigroups, their extremal elements, and the shifted-copy check of the
Gorenstein test) reduces to regions of this shape, because the group, the
balance functionals and semigroup membership of a nonnegative point only
see block sums.  The solver therefore enumerates block-sum tuples, with
per-coordinate interval constraints folded into per-block sum ranges;
realizations are reconstructed greedily.  All arithmetic is exact; the
enumeration is complete within the box, so emptiness answers are
certificates for the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .lattice import Vec
from .model import GROUP_BALANCED, GROUP_EVEN, GROUP_FULL, GROUP_ZERO, SVParams


ENGINE_BUDGET = 5_000_000


class EngineOverflow(Exception):
    """The block-sum search space exceeds ENGINE_BUDGET tuples."""


@dataclass
class Region:
    """Conjunction of constraints on x in Z^n:

    - lo[p] <= x[p] <= hi[p] per coordinate position,
    - balance_lo[i] <= total(x) - 2 * block_sum_i(x) <= balance_hi[i],
    - membership in the group named by group_tag,
    - total(x) == total_parity mod 2 when total_parity is set,
    - sum_predicate(block sums of x) when sum_predicate is set.
    """

    params: SVParams
    lo: list[int]
    hi: list[int]
    balance_lo: dict[int, int] = field(default_factory=dict)
    balance_hi: dict[int, int] = field(default_factory=dict)
    group_tag: str = GROUP_FULL
    total_parity: Optional[int] = None
    sum_predicate: Optional[Callable[[tuple[int, ...]], bool]] = None
    infeasible: bool = False

    def clamp_lo(self, pos: int, value: int) -> None:
        self.lo[pos] = max(self.lo[pos], value)

    def clamp_hi(self, pos: int, value: int) -> None:
        self.hi[pos] = min(self.hi[pos], value)

    def clamp_balance_lo(self, i: int, value: int) -> None:
        self.balance_lo[i] = max(self.balance_lo.get(i, value), value)

    def clamp_balance_hi(self, i: int, value: int) -> None:
        self.balance_hi[i] = min(self.balance_hi.get(i, value), value)

    def mark_infeasible(self) -> None:
        self.infeasible = True

    # -- block-sum search -------------------------------------------------

    def _block_ranges(self) -> Optional[list[range]]:
        if self.infeasible:
            return None
        p = self.params
        ranges = []
        for i in range(1, p.k + 1):
            positions = list(p.block_positions(i))
            if any(self.lo[q] > self.hi[q] for q in positions):
                return None
            lo = sum(self.lo[q] for q in positions)
            hi = sum(self.hi[q] for q in positions)
            ranges.append(range(lo, hi + 1))
        return ranges

    def _sum_tuple_ok(self, s: tuple[int, ...]) -> bool:
        total = sum(s)
        if self.total_parity is not None and total % 2 != self.total_parity:
            return False
        if self.group_tag == GROUP_EVEN and total % 2 != 0:
            return False
        if self.group_tag == GROUP_BALANCED and s[0] != s[1]:
            return False
        for i, lo in self.balance_lo.items():
            if total - 2 * s[i - 1] < lo:
                return False
        for i, hi in self.balance_hi.items():
            if total - 2 * s[i - 1] > hi:
                return False
        if self.sum_predicate is not None and not self.sum_predicate(s):
            return False
        return True

    def _feasible_sums(self) -> Iterator[tuple[int, ...]]:
        ranges = self._block_ranges()
        if ranges is None:
            return
        size = 1
        for r in ranges:
            size *= len(r)
            if size > ENGINE_BUDGET:
                raise EngineOverflow(f"block-sum search space over budget ({size})")
        if self.group_tag == GROUP_ZERO:
            zero = tuple(0 for _ in ranges)
            if all(0 in r for r in ranges) and self._sum_tuple_ok(zero):
                if all(self.lo[q] <= 0 <= self.hi[q] for q in range(self.params.n)):
                    yield zero
            return
        for s in itertools.product(*ranges):
            if self._sum_tuple_ok(s):
                yield s

    # -- realizations ------------------------------------------------------

    def _realize_block(self, i: int, target: int) -> list[int]:
        """Greedy composition of `target` over block i inside the bounds.

        Every block target of a tuple from `_feasible_sums` lies between the
        sums of the block's lower and upper bounds, so the greedy fill always
        lands on it exactly.
        """
        positions = list(self.params.block_positions(i))
        values = [self.lo[q] for q in positions]
        slack = target - sum(values)
        for idx, q in enumerate(positions):
            take = min(self.hi[q] - self.lo[q], slack)
            values[idx] += take
            slack -= take
            if slack == 0:
                break
        return values

    def _realize(self, s: tuple[int, ...]) -> Vec:
        out: list[int] = []
        for i in range(1, self.params.k + 1):
            out.extend(self._realize_block(i, s[i - 1]))
        return tuple(out)

    def _iter_block(self, i: int, target: int) -> Iterator[tuple[int, ...]]:
        positions = list(self.params.block_positions(i))

        def rec(idx: int, remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if idx == len(positions):
                if remaining == 0:
                    yield tuple(acc)
                return
            q = positions[idx]
            rest_lo = sum(self.lo[t] for t in positions[idx + 1:])
            rest_hi = sum(self.hi[t] for t in positions[idx + 1:])
            lo = max(self.lo[q], remaining - rest_hi)
            hi = min(self.hi[q], remaining - rest_lo)
            for v in range(lo, hi + 1):
                acc.append(v)
                yield from rec(idx + 1, remaining - v, acc)
                acc.pop()

        yield from rec(0, target, [])

    def _iter_points_of_sum(self, s: tuple[int, ...]) -> Iterator[Vec]:
        block_iters = [list(self._iter_block(i, s[i - 1])) for i in range(1, self.params.k + 1)]
        for combo in itertools.product(*block_iters):
            yield tuple(itertools.chain.from_iterable(combo))

    # -- public queries ----------------------------------------------------

    def find_point(self) -> Optional[Vec]:
        for s in self._feasible_sums():
            return self._realize(s)
        return None

    def enumerate_points(self, limit: int) -> list[Vec]:
        """Up to `limit` points, by increasing block-sum tuple (the order in
        which the block sums are generated)."""
        out: list[Vec] = []
        for s in self._feasible_sums():
            for p in self._iter_points_of_sum(s):
                out.append(p)
                if len(out) >= limit:
                    return out
        return out

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
        points: list[Vec] = []
        for s in at_best:
            for p in self._iter_points_of_sum(s):
                if len(points) == point_limit:
                    return best, point_limit + 1, points
                points.append(p)
        return best, len(points), points

    def max_coordinate(self, pos: int) -> Optional[int]:
        """Largest value of x[pos] over the region, or None if empty."""
        block_i = next(
            i
            for i in range(1, self.params.k + 1)
            if pos in self.params.block_positions(i)
        )
        best: Optional[int] = None
        for s in self._feasible_sums():
            others_lo = sum(
                self.lo[q] for q in self.params.block_positions(block_i) if q != pos
            )
            cand = min(self.hi[pos], s[block_i - 1] - others_lo)
            if cand < self.lo[pos]:
                continue
            if best is None or cand > best:
                best = cand
        return best
