"""The affine semigroup model attached to parameters (k, a, b).

The semigroup lives in Z^n with n = sum(b), coordinates indexed by pairs
(i, j) with 1 <= i <= k, 1 <= j <= b_i, ordered lexicographically.  Its
generators are the lattice points with block sums at most a_i and total
coordinate sum at least two.  The order of the positions within a block
does not matter, whether a vector is a generator reads only its block
sums, and blocks with equal (a_i, b_i) are interchangeable, so the model
is built once per block type (`SVParams.block_types`), not per position
or per block, and kept as a facet-class table (`facet_list`): one
`FacetClass` per block's coordinate facets or balance facet, with the
data its members share.  Every stage reads these two tables.

Its group is `closed_form_group`, a `GroupForm`: the model keeps no
basis vector, and reads the rank and the pivots of the group's Hermite
basis off its sparse rows (`_basis_rows`, `AffineSemigroup.basis_pivots`).
It is certified against the generators when the model is built
(`_spans_closed_form`): every generator lies in it, by box queries, and
every basis row lies in their span, written as a generator or a
difference of two, once per block type (`_decomposition`).  Each facet
class keeps its generator sum as its one value on the free coordinates
of each block (written out by `AffineSemigroup.facet_sum`), its least
value over the generators of odd total and its g_F, all read off the
block sums s of the generators (s_i <= a_i, sum(s) >= 2).  The extreme
rays are counted before they are listed (`AffineSemigroup.ray_count`);
their facet-incidence masks (which facets each ray lies on), read off the
generators e_p + e_q of coordinate sum two that span them
(`sum_two_masks`), each with its pair (p, q), are listed on first read
(`AffineSemigroup.ray_masks`, `AffineSemigroup.ray_pairs`); the
smoothness test reads the index of the rays' span off the pairs, with no
ray vector (`membership.ray_span_index`).  The semigroup also keeps its
membership engine and its normality verdict, each built on first read
(`AffineSemigroup.membership`, `AffineSemigroup.normality`).  The model
keeps no generator vector and no list of their block sums: those form the
box s_i <= a_i less the tuples of total below 2, and the facet list, the
group certificate and the membership engine's odd shapes ask it questions
by `_box_meets`, which reads the totals of a box off the sums of its
bounds.

Facets and extreme rays are read off the face lattice, with no rank,
under one premise: every facet of the cone is a coordinate hyperplane or
the balance hyperplane of a block of degree one (`SVParams.balance_blocks`).
Faces are ordered by their generator sets, so a candidate hyperplane cuts
a facet iff its generator set is maximal among the proper candidate faces
(`facet_list`, by its own rule), and, dually, a generator spans an extreme
ray iff its facet-incidence mask is maximal among the generators' masks.
Those are exactly the masks of the generators of sum two that
`sum_two_masks` lists, which it proves from the facet list, so no
maximality filter runs on them.
The double-description oracle of the test suite checks the premise for
n <= 6.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .lattice import Vec

@dataclass(frozen=True)
class GroupForm:
    """The group of the generators in closed form, as the model build, the
    region engine, membership and the facet criterion see it: every member
    has total parity `parity` when it is set and balance total - 2 * s_i = 0
    on every block i of `pinned`, and with `zero` every coordinate is 0.
    Pinned balances and `zero` force an even total, so only the form of all
    of Z^n leaves `parity` unset."""

    parity: Optional[int] = None
    pinned: tuple[int, ...] = ()
    zero: bool = False

    def contains(self, params: SVParams, v: Sequence[int]) -> bool:
        """Membership of v in this group on the blocks of params."""
        if self.zero:
            return not any(v)
        if self.parity is None:
            return True
        return self.contains_sums(params.block_sums(v))

    def contains_sums(self, sums: Sequence[int]) -> bool:
        """Membership of the nonnegative points with block sums `sums` (block
        i at index i - 1).  The test reads only the total, the pinned block
        sums and whether the point is 0, which for a nonnegative point is
        total 0, so it holds for every such point or for none."""
        if self.parity is None:
            return True
        total = sum(sums)
        if self.zero:
            return total == 0
        return total % 2 == self.parity and all(total == 2 * sums[i - 1] for i in self.pinned)


def _check_degrees_and_sizes(a: Sequence[int], b: Sequence[int]) -> None:
    """Refuse degrees and sizes that are not two nonempty sequences of
    equal length of positive ints (bools excluded)."""
    if len(a) != len(b) or not a:
        raise ValueError("a and b must be nonempty and of equal length")
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in (*a, *b)):
        raise ValueError("all entries of a and b must be positive integers")


@dataclass(frozen=True)
class SVParams:
    """Normalized parameters: k blocks with degrees a and sizes b.

    `of` sorts the pairs (a_i, b_i) lexicographically, so the degree vector
    is ascending; the permutation taking the caller's order to the
    normalized one is kept for reporting but ignored by equality.  Every
    instance, however built, is checked: a and b nonempty, of equal length,
    of positive ints, and the pairs in lexicographic order.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    original_a: tuple[int, ...] = field(compare=False, default=())
    original_b: tuple[int, ...] = field(compare=False, default=())
    permutation: tuple[int, ...] = field(compare=False, default=())

    @classmethod
    def of(cls, a: Sequence[int], b: Sequence[int]) -> "SVParams":
        a, b = tuple(a), tuple(b)
        _check_degrees_and_sizes(a, b)
        order = sorted(range(len(a)), key=lambda i: (a[i], b[i]))
        return cls(
            a=tuple(a[i] for i in order),
            b=tuple(b[i] for i in order),
            original_a=a,
            original_b=b,
            permutation=tuple(order),
        )

    def __post_init__(self):
        if not (isinstance(self.a, tuple) and isinstance(self.b, tuple)):
            raise ValueError("a and b must be tuples; use SVParams.of")
        _check_degrees_and_sizes(self.a, self.b)
        if list(zip(self.a, self.b)) != sorted(zip(self.a, self.b)):
            raise ValueError("pairs (a_i, b_i) must be in lexicographic order; use SVParams.of")

    @property
    def k(self) -> int:
        return len(self.a)

    @cached_property
    def block_starts(self) -> tuple[int, ...]:
        """The 0-based position where each block starts, block i at index
        i - 1, and n last: computed once per instance.  Not a field, so
        equality, hashing, repr and pickling see only the fields."""
        return (0, *itertools.accumulate(self.b))

    @property
    def n(self) -> int:
        return self.block_starts[-1]

    @cached_property
    def block_types(self) -> tuple[tuple[int, int, int], ...]:
        """The block types (a, b, multiplicity), in block order.  Blocks with
        equal (a_i, b_i) are interchangeable, and the normalized order puts
        them next to each other, so each type is one run of blocks.
        Computed once per instance; not a field."""
        return tuple(
            (ai, bi, len(list(run))) for (ai, bi), run in itertools.groupby(zip(self.a, self.b))
        )

    @property
    def balance_blocks(self) -> tuple[int, ...]:
        """The blocks of degree one, whose balances are the cone's other half-spaces."""
        return tuple(i for i, ai in enumerate(self.a, 1) if ai == 1)

    def check_length(self, v: Sequence[int]) -> None:
        if len(v) != self.n:
            raise ValueError(f"{list(v)} has length {len(v)}, not n = {self.n}")

    def indices(self) -> list[tuple[int, int]]:
        """The coordinate index set [(i, j)] in lexicographic order."""
        return [(i, j) for i in range(1, self.k + 1) for j in range(1, self.b[i - 1] + 1)]

    def block_positions(self, i: int) -> range:
        """0-based coordinate positions of block i (1-based)."""
        return range(self.block_starts[i - 1], self.block_starts[i])

    def block_of(self, p: int) -> int:
        """The block (1-based) of the 0-based position p."""
        return bisect.bisect_right(self.block_starts, p)

    def position(self, i: int, j: int) -> int:
        return self.block_starts[i - 1] + (j - 1)

    def block_sum(self, v: Sequence[int], i: int) -> int:
        return sum(v[self.block_starts[i - 1] : self.block_starts[i]])

    def block_sums(self, v: Sequence[int]) -> tuple[int, ...]:
        """The sums of v over every block, block i at index i - 1."""
        starts = self.block_starts
        return tuple(sum(v[start:end]) for start, end in zip(starts, starts[1:]))


@dataclass(frozen=True)
class FacetId:
    """Identifier of a supporting hyperplane: a coordinate one (x_{i,j} = 0)
    or a balance one (block sum i equals the sum of the other blocks)."""

    kind: str  # "coord" | "balance"
    i: int
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("coord", "balance"):
            raise ValueError("kind must be 'coord' or 'balance'")

    @property
    def sort_key(self):
        return (0 if self.kind == "coord" else 1, self.i, self.j)

    def __lt__(self, other: "FacetId") -> bool:
        return self.sort_key < other.sort_key

    def label(self) -> str:
        if self.kind == "coord":
            return f"F_{{{self.i},{self.j}}}"
        return f"F_{{{self.i}}}"


def facet_value(params: SVParams, f: FacetId, v: Sequence[int]) -> int:
    """Value of the facet's supporting functional at v (nonnegative on the cone)."""
    if f.kind == "coord":
        return v[params.position(f.i, f.j)]
    return sum(v) - 2 * params.block_sum(v, f.i)


class FacetClass(NamedTuple):
    """One class of the facet list: the coordinate facets of one block, or
    the balance facet of one block.  Its members are consecutive in the
    facet order and share every datum below; a coordinate facet's generator
    sum is 0 at its own coordinate and the block's value at the others."""

    kind: str  # "coord" | "balance"
    block: int  # 1-based
    mask: int  # the bits of its members in the facet order
    facets: tuple[FacetId, ...]  # its members
    # Per block, block i at index i - 1: the generator sum's value on the
    # free coordinates (0 on a block with none), and its block sums.
    values: tuple[int, ...]
    sums: tuple[int, ...]
    threshold: Optional[int]  # least facet value over the generators of odd total
    gcd: int  # g_F: the gcd of the facet value on the group


@dataclass(frozen=True)
class AffineSemigroup:
    params: SVParams
    group_form: GroupForm
    facet_classes: tuple[FacetClass, ...]  # `facet_list`: the facets, class by class

    @cached_property
    def facets(self) -> tuple[FacetId, ...]:
        return tuple(itertools.chain.from_iterable(c.facets for c in self.facet_classes))

    @cached_property
    def facet_labels(self) -> tuple[str, ...]:
        """Each facet's label, in the facet order: the one list every report reads."""
        return tuple(f.label() for f in self.facets)

    @cached_property
    def block_masks(self) -> tuple[list[int], list[int]]:
        """Per block, block i at index i - 1, the mask of its coordinate
        facets and that of its balance facet, 0 where it has none."""
        masks = {"coord": [0] * self.params.k, "balance": [0] * self.params.k}
        for c in self.facet_classes:
            masks[c.kind][c.block - 1] = c.mask
        return masks["coord"], masks["balance"]

    def facet_class(self, f: FacetId) -> FacetClass:
        """The class of the facet f; ValueError if f is no facet."""
        for c in self.facet_classes:
            if c.block == f.i and f in c.facets:
                return c
        raise ValueError(f"unknown facet {f.label()}")

    @cached_property
    def facet_block_values(self) -> Mapping[FacetId, tuple[int, ...]]:
        return MappingProxyType({f: c.values for c in self.facet_classes for f in c.facets})

    @cached_property
    def odd_thresholds(self) -> Mapping[FacetId, Optional[int]]:
        return MappingProxyType({f: c.threshold for c in self.facet_classes for f in c.facets})

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def basis_pivots(self) -> tuple[int, int]:
        """The rank of the group and the product of the pivots of its
        Hermite basis, read off the sparse rows (`_basis_rows`, row r with
        its pivot at position r): 2 for the even group, 1 for the others."""
        rows = _basis_rows(self.params, self.group_form)
        return len(rows), math.prod(row[r] for r, row in enumerate(rows))

    @property
    def rank(self) -> int:
        return self.basis_pivots[0]

    @cached_property
    def _sum_two(self) -> dict[int, tuple[int, int]]:
        return sum_two_masks(self.params, self.facets)

    @cached_property
    def ray_masks(self) -> tuple[int, ...]:
        """One facet-incidence mask per extreme ray, by decreasing bit count
        and then increasing value: bit t is set iff the ray lies on
        facets[t] (`sum_two_masks`).  Listed on first read: only the facet
        subsets of the Cohen-Macaulay test and the rays read them."""
        return tuple(self._sum_two)

    @cached_property
    def ray_pairs(self) -> tuple[tuple[int, int], ...]:
        """Per ray mask, the 0-based positions p <= q of the generator
        e_p + e_q it was read off (`sum_two_masks`), listed on first read."""
        return tuple(self._sum_two.values())

    @property
    def ray_count(self) -> int:
        """The number of extreme rays, len(ray_masks), counted by the rule of
        `sum_two_masks` without listing them: b_i diagonal pairs 2 e_p per
        block of degree two or more, and b_i b_l pairs across blocks i < l
        when a balance facet lies on i or l or both have degree one.  The
        listed pairs have distinct masks (`sum_two_masks`), so this counts
        its masks.

        Balance facets lie on blocks of degree one, so the pairs across
        blocks are those inside the blocks of degree one, (U^2 - Q) / 2 with
        U the sum of their b_i and Q that of their b_i^2, and those from a
        block with a balance facet to one of degree two or more: no loop
        over pairs of blocks."""
        a, b = self.params.a, self.params.b
        ones = [bi for ai, bi in zip(a, b) if ai == 1]
        higher = sum(b) - sum(ones)
        on_balance = sum(b[c.block - 1] for c in self.facet_classes if c.kind == "balance")
        across = (sum(ones) ** 2 - sum(bi * bi for bi in ones)) // 2 + on_balance * higher
        return across + higher

    def facet_sum(self, f: FacetId) -> Vec:
        """The facet's generator sum written out: its block values, and 0 at
        its own coordinate."""
        values, b = self.facet_class(f).values, self.params.b
        y0 = list(itertools.chain.from_iterable(map(itertools.repeat, values, b)))
        if f.kind == "coord":
            y0[self.params.position(f.i, f.j)] = 0
        return tuple(y0)

    @cached_property
    def membership(self):
        """The semigroup's one exact membership engine; it also holds the
        S_F closed forms."""
        # Imported here: membership.py imports this module.
        from .membership import SemigroupMembership

        return SemigroupMembership(self)

    @cached_property
    def normality(self):
        """The semigroup's exact normality verdict, decided on first read by
        the one unnarrowed hole search (`membership.is_normal`)."""
        # Imported here: membership.py imports this module.
        from .membership import NormalityVerdict, find_holes

        hole = find_holes(self)
        return NormalityVerdict("normal" if hole is None else "not-normal", hole)

    def group_member(self, v: Sequence[int]) -> bool:
        # Closed-form check; the group is certified against the generators
        # when the model is built.
        self.params.check_length(v)
        return self.group_form.contains(self.params, v)


def closed_form_group(params: SVParams) -> GroupForm:
    """The group spanned by the generators, in closed form; its Hermite
    basis is `_basis_rows`.

    It is all of Z^n except in three cases: two blocks of degree one (equal
    block sums), one block of degree two (even coordinate sum), one block of
    degree one (zero).
    """
    if params.k == 1 and params.a[0] == 1:
        return GroupForm(parity=0, zero=True)
    if params.k == 1 and params.a[0] == 2:
        return GroupForm(parity=0)
    if params.k == 2 and params.a == (1, 1):
        # Both balances, so that a region keeps its two blocks equal.
        return GroupForm(parity=0, pinned=(1, 2))
    return GroupForm()


def _basis_rows(params: SVParams, form: GroupForm) -> list[dict[int, int]]:
    """The Hermite basis of the group of `form` on the blocks of params, as
    sparse rows {position: entry}, row r with its pivot at position r.  The
    entries of row p sit at p and at the last position only, and they
    depend only on p's block and on whether p is the last position.

    The full group has the unit rows e_p.  The even group has e_p + e_n for
    p < n and 2 e_n.  The balanced group (block sums equal) has e_p + e_n
    over block 1 and e_p - e_n over block 2 but its last, and every other
    point of it is fixed by its coordinates before the last.  The zero group
    has none.  Each basis is in Hermite normal form: its pivots are 1 but
    for the even group's last, and every other entry of a pivot column is 0.
    """
    last = params.n - 1
    if form.zero:
        return []
    if form.parity is None:
        return [{p: 1} for p in range(last + 1)]
    if not form.pinned:
        return [{p: 1, last: 1} for p in range(last)] + [{last: 2}]
    return [{p: 1, last: 1 if p < params.b[0] else -1} for p in range(last)]


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks that are maximal by inclusion, by decreasing bit
    count and then increasing value, whatever order the input comes in.  A
    lone zero mask is maximal, and beside any other mask it is not.  It
    gives the maximal faces of each pi_J (`hoatrung`), whose cut ray masks
    do nest; the ray masks themselves need no filter (`sum_two_masks`)."""
    candidates = sorted(set(masks))
    candidates.sort(key=int.bit_count, reverse=True)  # stable: values stay increasing
    maximal: list[int] = []
    for m in candidates:
        for keep in maximal:
            if m & keep == m:
                break
        else:
            maximal.append(m)
    return maximal


def sum_two_masks(params: SVParams, facets: Sequence[FacetId]) -> dict[int, tuple[int, int]]:
    """The facet-incidence masks of the extreme rays (bit t set iff the ray
    lies on facets[t]), by decreasing bit count and then increasing value,
    the order of `maximal_masks`, each with the 0-based positions p <= q of
    the generator e_p + e_q of coordinate sum two it is read off.  Only the
    pairs that span rays are listed, and no filter runs after them:

    - 2 e_p for every position p of a block of degree two or more;
    - e_p + e_q for p and q in different blocks, when the pair lies on a
      balance facet or both blocks have degree one.

    e_p + e_q is a generator unless p and q lie in one block of degree one.
    It lies on the coordinate facets of every other position, and, when p
    and q lie in different blocks i and l, on the balance facets of both:
    total - 2 s_i = 2 - 2 = 0.  A generator lies on the balance facet of a
    block i only at total 2, since a_i = 1 gives total = 2 s_i <= 2.

    Every generator's mask lies under a listed one.  If g has positive
    coordinates p != q, then e_p + e_q is a generator that vanishes
    wherever g does; if g = c e_p with c >= 2, then 2 e_p has g's
    coordinate bits.  A pair p != q that is not listed lies on no balance
    facet and has a position, say p, in a block of degree two or more, so
    its mask lies under that of 2 e_p.

    The listed masks form an antichain, so they are the maximal masks of
    all the generators: the ray masks.  The proof reads the facet list.
    `facet_list` drops a candidate hyperplane only if the generator set of
    another candidate that misses some generator contains its own.  Two
    facts follow.

    (1) Unless a = (1, 1), the balance hyperplane of every block l of
    degree one is a facet.  The generators on it are the e_q + e_r with q
    in block l and r outside it.  Some generator lies off it: 2 e_w in a
    block of degree two or more, or a pair across two blocks other than l
    when k >= 3.  Every position lies in one of its pairs, so no coordinate
    candidate holds them all.  The balance of another degree-one block m
    misses the pairs with r outside blocks l and m, which exist when k >=
    3; when k = 2, m is the only other block, and a = (1, 1).

    (2) If the coordinate hyperplane of a position u is not a facet, u is
    the only position of its block, and every other block has degree one.
    As it was dropped, some other proper candidate holds every generator
    that vanishes at u.  A coordinate candidate v does so only if no
    generator has v in its support and not u: v's block has degree one,
    and u is the only position outside it, so k = 2.  A balance candidate
    l is proper only if a != (1, 1), and it does so only if every generator
    that vanishes at u is a pair with one position in block l.  Then u
    lies outside block l, since otherwise 2 e_w or a pair across two other
    blocks vanishes at u.  No position but u has degree two or more, since
    its 2 e_w would vanish at u.  And the positions outside block l other
    than u lie in one block, since otherwise a pair across two of their
    blocks vanishes at u.  If u shared its block, that block would be this
    one, of degree one, and k = 2 would give a = (1, 1).

    Now let P != P' be listed pairs, as position sets, with the mask of P
    under that of P'.  Then every balance facet of P holds P', and every
    position of P' outside P has a coordinate hyperplane that is not a
    facet.  If a = (1, 1), no balance hyperplane is a facet (each holds
    every generator).  Each listed pair takes one position from each
    block, so a position u of P' outside P shares its block with the
    position of P, and (2) is contradicted.  Otherwise, by (1), a listed
    pair across blocks lies on a balance facet, and no diagonal 2 e_p
    does.  So P' is not a proper subset of P, since then P' would be a
    diagonal and P a pair across blocks, on a balance facet that P' is
    not on.  Take u in P' outside P, with u alone in its block i and every
    other block of degree one, by (2).  P avoids block i, so it is a pair
    across two degree-one blocks l and m, on both of their balance facets.
    These must hold P' too, so P' is a pair across blocks l and m, yet it
    holds u.  So distinct listed pairs never have nested or equal masks.
    The dictionary still keeps the first pair per mask, in lexicographic
    order.
    """
    bits = {f: 1 << t for t, f in enumerate(facets)}
    coordinate = [bits.get(FacetId("coord", i, j), 0) for i, j in params.indices()]
    balance = [bits.get(FacetId("balance", i), 0) for i in range(1, params.k + 1)]
    block = [i for i, bi in enumerate(params.b) for _ in range(bi)]  # 0-based, per position
    every = sum(coordinate)
    masks: dict[int, tuple[int, int]] = {}
    for p, i in enumerate(block):  # the pairs p <= q in lexicographic order
        if params.a[i] >= 2:
            masks.setdefault(every & ~coordinate[p], (p, p))
        for l in range(i + 1, params.k):
            on_balance = balance[i] | balance[l]
            if on_balance or params.a[i] == params.a[l] == 1:
                for q in params.block_positions(l + 1):
                    mask = every & ~(coordinate[p] | coordinate[q]) | on_balance
                    masks.setdefault(mask, (p, q))
    return dict(sorted(masks.items(), key=lambda item: (-item[0].bit_count(), item[0])))


def _box_meets(low: int, high: int, t_lo: int = 2, t_hi=math.inf) -> bool:
    """Whether a box lo <= s <= hi of the generators' block sums holds one
    of total in [t_lo, t_hi], read off low = sum(lo) and high = sum(hi),
    for bounds inside the box 0 <= s_i <= a_i with lo_i <= hi_i on every
    block.

    The generators' block sums are the tuples of that box of total at
    least 2.  Raising one block sum by one raises the total by one, so the
    totals of the box are every integer from low to high, and the answer is
    whether that interval meets [max(2, t_lo), t_hi]: no tuple is listed."""
    return max(low, 2, t_lo) <= min(high, t_hi)


def facet_list(params: SVParams) -> tuple[FacetClass, ...]:
    """The facet-class table of the cone spanned by the generators: its
    facets, class by class in the facet order, each class with its
    generator sum, as its value on the free coordinates of each block, its
    least facet value over the generators of odd total (None if there is
    none) and its g_F, all read off the box of the
    generators' block sums s (s_i <= a_i, sum(s) >= 2) by `_box_meets`; no
    generator and no block-sum tuple is built.

    The candidates are the coordinate hyperplanes and the balance
    hyperplanes of the blocks of degree one; every facet is one of them
    (the premise of the module doc).  At block sums s, some generator has
    x_ij = 0 iff s_i = 0 or b_i >= 2, and some has x_ij > 0 iff s_i > 0;
    the balance of block i vanishes on all of them iff sum(s) = 2 s_i, and
    on none otherwise.  So every generator at s lies on the coordinate
    candidates of the blocks with s_i = 0 and on those balances (`on`), and
    on no other candidate but, for those at s on the coordinate candidate
    (i, j) with s_i > 0, on (i, j) itself: every other coordinate of a
    block with s_i > 0 is positive on one of them.  The AND of these masks
    over the block sums at which a candidate holds some generator is the
    AND of the candidate masks of its generators, the candidates whose face
    contains its face.  A candidate containing every generator cuts no
    proper face; among the others, the facets are the maximal faces, since
    every proper face lies in a facet, and candidates cutting the same face
    are reported once, first in the canonical order.  A rank-one cone
    keeps its origin facet, whose face has no generators (its AND is every
    candidate), and a cone without generators has no facets.

    The pass runs on classes of candidates: the coordinate candidates of
    each block, then each balance.  Every mask above is a union of whole classes
    but for the coordinate candidate's own bit, so the AND is one per
    class, read off boxes of the block sums (`on`).  Two coordinate
    candidates of one block cut distinct faces: with b_i >= 2 the AND runs
    over every s, and at an s with s_i > 0 some generator lies on one of
    them and off the other.  So a class cuts maximal faces iff every other
    proper class in its AND has it in its own AND; it repeats a face
    reported before iff its AND holds a class kept before it; and a kept
    coordinate class reports every candidate of its block.

    Class c's AND holds class d iff no block sums at which some generator
    lies on c have a generator off d.  Both are boxes of block sums, so
    each is one or two `_box_meets` queries.  Some generator lies on c at
    every s for the coordinates of a block with b_i >= 2, at s_i = 0 for
    those of a block with b_i = 1, and at s_i = 1 and total 2 for a balance
    (a_i = 1, so total = 2 s_i >= 2 pins both).  Some generator lies off d
    at s_d >= 1 for a coordinate class, and for a balance at s_d = 0 (the
    total is at least 2) or at total 3 or more.

    Blocks of one type are interchangeable, so the pass runs once per
    class type, a kind and a block type, at the type's first block.  Each
    box above differs from that of every s at the class's own block at
    most, so a class's AND reads each class type d at that block ("own")
    and at any other block of d's type ("other"), where the box is 0 <= s_j
    <= a_j and the off-set reads only d's kind (a balance has a_j = 1).
    These bits, and which relations exist, are the same for every member
    of a class type, so the kept loop runs over pairs of class types and
    decides the members alike, but for one case: members whose ANDs hold
    one another cut one face, and only the first is kept.  A later class
    repeats that face iff its AND holds any member, kept or not.

    A facet's generator sum is uniform on each block but for the facet's
    own coordinate, where it is 0, by the symmetry of each block's
    coordinates: in block l it is the sum of s_l over the generators on
    the facet, divided by the number f_l of block-l coordinates free on the
    facet, and it has a closed form.  On the coordinate facet (i, j), f_i =
    b_i - 1 and f_m = b_m for m != i.  Let c_m(x) = C(x + f_m - 1, f_m - 1)
    count the compositions of x into the free parts of block m (c_m(x) =
    [x = 0] when f_m = 0), T_m = sum_x c_m(x) = C(a_m + f_m, f_m) and U_l =
    sum_x x c_l(x) = f_l C(a_l + f_l, f_l + 1), the sums over 0 <= x <= a.
    Over every s of the box s_m <= a_m, the s_l of the generators on the
    facet add up to U_l * prod_{m != l} T_m; the block sums of total at
    most 1 add only c_l(1) = f_l, at s = e_l.  So each free block-l
    coordinate sums to C(a_l + f_l, f_l + 1) * prod_{m != l} T_m - 1.  The
    balance facet of block i holds the generators at the block sums e_i +
    e_m (m != i), b_i b_m of them at each, so its block-i coordinates sum to
    n - b_i and the others to b_i.  Off the facet's own block the value
    reads only the block's type: one value per block type and class type.

    The least facet value over the generators of odd total: the box's
    totals run from 2 to sum(a), so there is none when sum(a) <= 2.
    Otherwise it is 0 on a coordinate facet of a block with b_i >= 2, where
    some generator of total 3 is 0 at the facet's coordinate.  With b_i = 1
    the value is s_i, and the least s_i of an odd total is 3 - R, R =
    sum(a) - a_i the most the other blocks hold, or 0 once R >= 3.  On a
    balance facet (a_i = 1) it is total - 2 s_i, odd and at least total - 2
    >= 1, and 1 at s_i = 1 and total 3.

    g_F, the gcd of the facet's values on the group, which the generators
    span (the model build certifies it), over the same box: a generator
    takes every value 0..s_i on a coordinate facet of a block with b_i >=
    2, so some takes 1.  With b_i = 1 it takes s_i: 1 at s = e_i + e_l when
    another block l exists, and otherwise s_i runs over 2..a_i, with gcd 1
    once a_i >= 3.  On the balance facet of block i it takes total - 2 s_i:
    R at s_i = 0 and R - 1 at s_i = 1, R = sum(a) - 1 the most the other
    blocks hold.  These reach 0 and 1 when R >= 2, and otherwise only 0 (s
    = e_i + e_l), or no value at all.
    """
    k, n, total, types = params.k, params.n, sum(params.a), params.block_types
    kinds = [("coord", t) for t in range(len(types))]
    kinds += [("balance", t) for t, (at, _, _) in enumerate(types) if at == 1]
    # A box (t, lo, hi, t_lo, t_hi) holds the block sums of total in [t_lo,
    # t_hi] with lo <= s_i <= hi at the first block i of type t and 0 <= s_j
    # <= a_j at every other block; t is None in the box of every s.
    every = (None, 0, 0, 2, math.inf)
    boxes = [  # per class type, where some generator lies on it
        (t, 1, 1, 2, 2) if kind == "balance"
        else (t, 0, 0, 2, math.inf) if types[t][1] == 1
        else every
        for kind, t in kinds
    ]

    def off(box: tuple, kind: str, same: bool) -> bool:
        """Whether some generator at the block sums of the box lies off the
        class of this kind at the box's block (same) or at another block,
        or any block of the box of every s, where 0 <= s_j <= a_j and only
        a_j >= 1 is read (a balance has a_j = 1): the box narrowed to s_j >=
        1, or to s_j = 0 or a total of 3 or more, meets the generators
        (`_box_meets`)."""
        t, lo, hi, t_lo, t_hi = box
        low, high = lo, total - (0 if t is None else types[t][0] - hi)
        lo_j, hi_j = (lo, hi) if same and t is not None else (0, 1)
        if kind == "coord":
            return hi_j >= 1 and _box_meets(low + (lo_j < 1), high, t_lo, t_hi)
        return lo_j == 0 and _box_meets(low, high - hi_j, t_lo, t_hi) or _box_meets(
            low, high, max(t_lo, 3), t_hi
        )

    # Per box, the kinds its AND holds at its own block and at another.
    on = {
        box: {(kind, same) for kind in ("coord", "balance") for same in (True, False)
              if not off(box, kind, same)}
        for box in {every, *boxes}
    }
    proper = [(kind, False) not in on[every] for kind, _ in kinds]
    first = list(itertools.accumulate((m for *_, m in types), initial=1))  # per type, 1-based
    type_of = [t for t, (*_, m) in enumerate(types) for _ in range(m)]  # per block
    full = math.prod(math.comb(at + bt, bt) ** mt for at, bt, mt in types)  # prod of the T_m
    classes: list[FacetClass] = []
    kept: list[int] = []
    bit = 0
    for c, (kind, t) in enumerate(kinds):
        if not proper[c]:
            continue
        at, bt, mt = types[t]
        ands = on[boxes[c]]
        # The relations that exist: to the other kind at its own block, and
        # to every class type at another block of its type.
        held = [
            (d, same) for d, (other, u) in enumerate(kinds) for same in (True, False)
            if (other, same) in ands and proper[d]
            and (u == t and d != c if same else u != t or mt > 1)
        ]
        if any(d in kept for d, _ in held):
            continue
        if not all((kind, same) in on[boxes[d]] for d, same in held):
            continue
        kept.append(c)
        if kind == "coord":
            product = full // math.comb(at + bt, bt) * math.comb(at + bt - 1, bt - 1)

            def value(al: int, fl: int) -> int:
                """A free coordinate's sum in a block of degree al with fl free."""
                if not fl:
                    return 0
                return math.comb(al + fl, fl + 1) * (product // math.comb(al + fl, fl)) - 1

            others, own = [value(au, bu) for au, bu, _ in types], value(at, bt - 1)
            free, threshold = bt - 1, 0 if bt > 1 else max(0, 3 - (total - at))
            gcd = 1 if bt > 1 or k > 1 else math.gcd(*range(2, min(at, 3) + 1))
        else:
            others, own, free, threshold, gcd = [bt] * len(types), n - bt, bt, 1, int(total > 2)
        values = [others[u] for u in type_of]
        sums = list(map(operator.mul, values, params.b))
        width = bt if kind == "coord" else 1
        for i in range(first[t], first[t] + (1 if mt > 1 and (kind, False) in ands else mt)):
            values[i - 1], sums[i - 1] = own, own * free
            facets = (FacetId("balance", i),) if kind == "balance" else tuple(
                FacetId("coord", i, j) for j in range(1, bt + 1))
            classes.append(FacetClass(
                kind, i, ((1 << width) - 1) << bit, facets, tuple(values), tuple(sums),
                threshold if total > 2 else None, gcd,
            ))
            values[i - 1], sums[i - 1] = others[t], others[t] * bt
            bit += width
    return tuple(classes)


def build_semigroup(a: Sequence[int], b: Sequence[int]) -> AffineSemigroup:
    return build_semigroup_from_params(SVParams.of(a, b))


def _decomposition(
    params: SVParams, row: Mapping[int, int]
) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """Generators g and c with row = g - c, as sparse vectors {position:
    entry}, c empty when the sparse row is itself a generator; None if there
    are none such.

    A nonnegative vector is a generator iff its block sums s have s_i <=
    a_i and sum(s) >= 2, so each term is checked by its block sums.  If
    the row is not a generator, c covers its negative entries and is filled
    up to total 2 greedily, block by block at the block's first position,
    as far as both g = row + c and c stay within the degrees.  That finds a
    c of total 2 whenever there is one, and a larger c would still leave
    one of total 2 below it.  Every basis row of the closed forms has such
    a pair: a row of the even or balanced group is a generator or the
    difference (e_p + e_w) - (e_n + e_w) of two, and a unit e_p of the full
    group is 3e_p - 2e_p, (2e_p + e_q) - (e_p + e_q), (e_p + 2e_q) - 2e_q or
    (e_p + e_q + e_r) - (e_q + e_r), q and r in other blocks, whichever the
    block degrees allow.
    """
    a, block_of = params.a, params.block_of
    c = {q: -e for q, e in row.items() if e < 0}
    g_sums, c_sums = [0] * params.k, [0] * params.k
    for q, e in row.items():
        if e > 0:
            g_sums[block_of(q) - 1] += e
        else:
            c_sums[block_of(q) - 1] -= e
    if not c and sum(g_sums) >= 2 and all(map(operator.le, g_sums, a)):
        return dict(row), {}
    need = 2 - sum(c_sums)
    for l, start in enumerate(params.block_starts[:-1]):
        if need <= 0:
            break
        step = max(0, min(need, a[l] - max(g_sums[l], c_sums[l])))
        if step:
            c[start] = c.get(start, 0) + step
            g_sums[l] += step
            c_sums[l] += step
            need -= step
    if need or sum(g_sums) < 2 or any(map(operator.gt, g_sums + c_sums, a + a)):
        return None
    return {q: row.get(q, 0) + c.get(q, 0) for q in row.keys() | c.keys()}, c


def _spans_closed_form(params: SVParams, form: GroupForm) -> bool:
    """Whether the generators span the group of `form`.

    Two containments decide it.  Every generator lies in the form's group:
    the form's test reads only block sums (`GroupForm.contains_sums`), so
    it fails on some generator iff some box of the generators' block sums
    s holds a tuple (`_box_meets`).  The zero group holds none of them,
    all of total 2 or more.  A parity fails iff some generator has the
    other parity, which the totals, running from 2 up, show at total 3 -
    parity.  The pinned balance of block i fails iff some generator has
    total != 2 s_i: one with s_i = 0, or one with s_i >= 2 and every other
    block 0, since s_i < R, the sum of the other blocks, leaves a tuple
    with s_i = 0 and total R >= 2, and s_i > R leaves s_i e_i.  And the
    form's Hermite basis (`_basis_rows`) lies in the generators' span: the
    rows of each class are written as a generator or a difference of two,
    once per class (`_decomposition`).  Row p has its entries at p and at
    the last position, and they depend only on p's block (block 1 or 2 of
    the balanced group) and on whether p is last.  Mapping each block onto
    a block of its type, position by position, and then swapping two
    positions inside a block maps generators to generators, since the
    generator test reads only block sums and blocks of one type have equal
    degrees; such a map takes the row at the first position of a type to
    row p, for p of that type, if it fixes the last position or the rows
    have no entry there.  The full group's rows but the last are units
    e_p.  The even and balanced groups (k <= 2) have a last entry, and
    there the maps fix the last position outside the last block, whose
    rows are images of its first row under swaps inside it.  So the
    decompositions are one per block type, the last row, and for the even
    and balanced groups the last block's first row.
    """
    a, parity = params.a, form.parity
    zero = form.zero and _box_meets(0, sum(a))
    odd = parity is not None and _box_meets(0, sum(a), 3 - parity, 3 - parity)
    if zero or odd or any(_box_meets(0, sum(a) - a[i - 1]) or a[i - 1] >= 2 for i in form.pinned):
        return False
    rows, starts = _basis_rows(params, form), params.block_starts
    blocks = itertools.accumulate((m for *_, m in params.block_types[:-1]), initial=0)
    firsts = {*(starts[i] for i in blocks), params.n - 1, starts[-2] if parity is not None else 0}
    return all(_decomposition(params, rows[p]) is not None for p in firsts if p < len(rows))


def build_semigroup_from_params(params: SVParams) -> AffineSemigroup:
    classes = facet_list(params)
    form = closed_form_group(params)
    if not _spans_closed_form(params, form):
        raise RuntimeError(f"generator lattice does not match its closed form for {params}")
    return AffineSemigroup(params, form, classes)
