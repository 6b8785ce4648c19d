"""The affine semigroup model attached to parameters (k, a, b).

The semigroup lives in Z^n with n = sum(b), coordinates indexed by pairs
(i, j) with 1 <= i <= k, 1 <= j <= b_i, ordered lexicographically.  Its
generators are the lattice points with block sums at most a_i and total
coordinate sum at least two.  Their group is `closed_form_group`, a
`GroupForm` with its lattice, certified against the generators in both
directions when the model is built: every generator lies in it, tested
once per block-sum tuple, and the generators of coordinate sum at most
three already span it (`Sublattice.spanned_by`, which stops as soon as
they do).  The cone they span comes with its facet list, each facet's
generator sum and each facet's least value over the generators of odd
total, all read off the block sums s of the generators (s_i <= a_i,
sum(s) >= 2), since the generators with block sums s are the products of
the compositions of each s_i into b_i parts (`facet_list`); and with the
facet-incidence masks of its extreme rays (which facets each ray lies
on), read off the generators e_p + e_q of coordinate sum two that span
them (`sum_two_masks`), each with its pair (p, q), off which
`extreme_rays` reads the ray's vector.
The model keeps no generator vector: they are built on first read
(`AffineSemigroup.generators`).  It keeps their block sums instead
(`AffineSemigroup.shapes`), listed once per model by `block_sum_tuples`;
the facet list, the group certificate, the membership engine and the
Gorenstein re-check all read that one list.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .lattice import Sublattice, Vec

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

    @property
    def n(self) -> int:
        return sum(self.b)

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
        start = sum(self.b[: i - 1])
        return range(start, start + self.b[i - 1])

    def position(self, i: int, j: int) -> int:
        return sum(self.b[: i - 1]) + (j - 1)

    def block_sum(self, v: Sequence[int], i: int) -> int:
        return sum(v[p] for p in self.block_positions(i))

    def block_sums(self, v: Sequence[int]) -> tuple[int, ...]:
        """The sums of v over every block, block i at index i - 1."""
        ends = itertools.accumulate(self.b)
        return tuple(sum(v[end - bi : end]) for end, bi in zip(ends, self.b))


def _exact_compositions(total: int, parts: int) -> Iterator[Vec]:
    """The vectors of `parts` nonnegative integers with sum `total`, lazily,
    in decreasing lexicographic order.  Each is a multiset of `total`
    symbols from 0..parts - 1 (v_p copies of p), and
    `combinations_with_replacement` lists those in exactly that order."""
    for multiset in itertools.combinations_with_replacement(range(parts), total):
        counts = [0] * parts
        for p in multiset:
            counts[p] += 1
        yield tuple(counts)


def _compositions(total: int, parts: int) -> list[Vec]:
    """All vectors of `parts` nonnegative integers with sum at most `total`,
    in lexicographic order: the compositions of `total` into parts + 1,
    the last one taking the slack, reversed."""
    out = [v[:parts] for v in _exact_compositions(total, parts + 1)]
    out.reverse()
    return out


def generator_vectors(params: SVParams) -> tuple[Vec, ...]:
    """All lattice points with block sums <= a_i and total sum >= 2, in
    graded lexicographic order (total sum, then lex).

    They are built grade by grade from the last block to the first: the
    tails of total t over blocks i.. are each block-i vector v, in
    lexicographic order, followed by the tails of total t - |v| over the
    blocks after it, so every grade stays sorted and no vector is summed.
    """
    tails: list[list[Vec]] = [[()]]  # by total; over no blocks, the empty tail
    for i in range(params.k, 0, -1):
        grades: list[list[Vec]] = [[] for _ in range(len(tails) + params.a[i - 1])]
        for v in _compositions(params.a[i - 1], params.b[i - 1]):
            for t, rests in zip(itertools.count(sum(v)), tails):
                grades[t].extend([v + rest for rest in rests])
        tails = grades
    return tuple(itertools.chain.from_iterable(tails[2:]))


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


@dataclass(frozen=True)
class AffineSemigroup:
    params: SVParams
    group: Sublattice
    group_form: GroupForm
    facets: tuple[FacetId, ...]
    # One facet-incidence mask per extreme ray, by decreasing bit count and
    # then increasing value: bit t is set iff the ray lies on facets[t].
    ray_masks: tuple[int, ...]
    # Read-only, per facet: the coordinatewise sum of the generators lying
    # on it (the zero vector for a facet without generators), and the least
    # facet value over the generators of odd total (None if there is none).
    # Then the block sums of the generators, `block_sum_tuples(params)`,
    # built once per model.  Derived from the fields above, so equality and
    # hashing ignore them.
    facet_sums: Mapping[FacetId, Vec] = field(compare=False)
    odd_thresholds: Mapping[FacetId, Optional[int]] = field(compare=False)
    shapes: tuple[tuple[int, ...], ...] = field(compare=False)
    # Per ray mask, the 0-based positions p <= q of the generator e_p + e_q
    # it was read off (`sum_two_masks`); derived too.
    ray_pairs: tuple[tuple[int, int], ...] = field(compare=False)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def rank(self) -> int:
        return self.group.rank

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        """The generators in graded lexicographic order (`generator_vectors`),
        built on first read: only `to_dict` reads them."""
        return generator_vectors(self.params)

    @cached_property
    def facet_block_sums(self) -> Mapping[FacetId, tuple[int, ...]]:
        """Read-only, per facet: the block sums of its generator sum
        (`facet_sums`), built on first read."""
        block_sums = self.params.block_sums
        return MappingProxyType({f: block_sums(y0) for f, y0 in self.facet_sums.items()})

    @cached_property
    def membership(self):
        """The semigroup's one exact membership engine; it also holds the
        normality verdict and the S_F closed forms."""
        # Imported here: membership.py imports this module.
        from .membership import SemigroupMembership

        return SemigroupMembership(self)

    def group_member(self, v: Sequence[int]) -> bool:
        # Closed-form check; the group is certified against the generators
        # when the model is built.
        self.params.check_length(v)
        return self.group_form.contains(self.params, v)

    def to_dict(self) -> dict:
        """JSON form of the model for report embedding; vectors are arrays
        in the lexicographic index order."""
        return {
            "params": {"k": self.params.k, "a": list(self.params.a), "b": list(self.params.b)},
            "indices": [list(ij) for ij in self.params.indices()],
            "generators": [list(g) for g in self.generators],
            "group": {
                "rank": self.group.rank,
                "parity": self.group_form.parity,
                "pinned": list(self.group_form.pinned),
                "zero": self.group_form.zero,
                "basis": [list(row) for row in self.group.basis],
            },
            "cone": {"balance_blocks": list(self.params.balance_blocks)},
            "facets": [f.label() for f in self.facets],
        }


def closed_form_group(params: SVParams) -> tuple[GroupForm, Sublattice]:
    """The group spanned by the generators, in closed form, with its Hermite
    basis written out.

    It is all of Z^n except in three cases: two blocks of degree one (equal
    block sums), one block of degree two (even coordinate sum), one block of
    degree one (zero).  Each basis below is already in Hermite normal form:
    its pivots are 1 but for the even group's last, and every other entry
    of a pivot column is 0.
    """
    n = params.n

    def unit(p: int, last: int = 0) -> Vec:
        """e_p + last * e_n."""
        row = [0] * n
        row[p] += 1
        row[n - 1] += last
        return tuple(row)

    if params.k == 1 and params.a[0] == 1:
        return GroupForm(parity=0, zero=True), Sublattice(n, ())
    if params.k == 1 and params.a[0] == 2:
        # e_j + e_n for j < n, and 2 e_n.
        rows = [unit(p, 1) for p in range(n - 1)] + [unit(n - 1, 1)]
        return GroupForm(parity=0), Sublattice(n, tuple(rows))
    if params.k == 2 and params.a == (1, 1):
        # e_p + e_n over block 1, e_p - e_n over block 2 but its last.
        rows = [unit(p, 1 if p < params.b[0] else -1) for p in range(n - 1)]
        # Both balances, so that a region keeps its two blocks equal.
        return GroupForm(parity=0, pinned=(1, 2)), Sublattice(n, tuple(rows))
    return GroupForm(), Sublattice(n, tuple(map(unit, range(n))))


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


def block_sum_tuples(params: SVParams) -> list[tuple[int, ...]]:
    """The block sums s of the generators: s_i <= a_i and sum(s) >= 2.  The
    generators with block sums s are the products over the blocks of the
    compositions of s_i into b_i parts (nonnegative, in order)."""
    boxes = (range(ai + 1) for ai in params.a)
    return [s for s in itertools.product(*boxes) if sum(s) >= 2]


def facet_list(
    params: SVParams, shapes: Sequence[tuple[int, ...]]
) -> tuple[tuple[FacetId, ...], Mapping[FacetId, Vec], Mapping[FacetId, Optional[int]]]:
    """Facet identifiers of the cone spanned by the generators, with
    read-only mappings of each facet's generator sum and of its least facet
    value over the generators of odd total (None if there is none), all
    read off `shapes`, the block sums s of the generators
    (`block_sum_tuples`); no generator is built.

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
    n - b_i and the others to b_i.  The least facet value at block sums s is
    sum(s) - 2 s_i for a balance facet, and for the coordinate facet (i, j)
    it is 0, unless b_i = 1 where x_ij = s_i.
    """
    k, n = params.k, params.n
    balance_blocks = params.balance_blocks
    candidates = [FacetId("coord", i, j) for (i, j) in params.indices()]
    candidates += [FacetId("balance", i) for i in balance_blocks]
    block_bits = [sum(1 << p for p in params.block_positions(i)) for i in range(1, k + 1)]
    balance_bits = {i: 1 << (n + t) for t, i in enumerate(balance_blocks)}
    everything = (1 << len(candidates)) - 1
    block_meets = [everything] * k  # the AND per block's coordinate candidates
    balance_meets = dict.fromkeys(balance_blocks, everything)
    off = 0  # the candidates some generator lies off
    for s in shapes:
        total = sum(s)
        on = sum(bits for bits, si in zip(block_bits, s) if not si)
        on |= sum(bit for i, bit in balance_bits.items() if total == 2 * s[i - 1])
        for i, si in enumerate(s):
            if si:
                off |= block_bits[i]
            if not si or params.b[i] >= 2:
                block_meets[i] &= on
        for i, bit in balance_bits.items():
            if on & bit:
                balance_meets[i] &= on
            else:
                off |= bit
    meets = [block_meets[f.i - 1] | 1 << c for c, f in enumerate(candidates[:n])]
    meets += balance_meets.values()
    proper = [c for c in range(len(candidates)) if off >> c & 1]
    kept: list[int] = []
    for c in proper:
        above = [d for d in proper if meets[c] >> d & 1]  # faces containing c's
        if all(meets[d] >> c & 1 for d in above) and not any(d in above for d in kept):
            kept.append(c)
    facets = tuple(candidates[c] for c in kept)

    odd = [s for s in shapes if sum(s) % 2]
    by_block: dict[tuple[str, int], tuple[list[int], Optional[int]]] = {}
    sums: dict[FacetId, Vec] = {}
    thresholds: dict[FacetId, Optional[int]] = {}
    for f in facets:
        i = f.i - 1
        key = (f.kind, i)
        if key not in by_block:
            if f.kind == "coord":
                free = list(params.b)  # the coordinates of each block free on f
                free[i] -= 1
                totals = [math.comb(al + fl, fl) for al, fl in zip(params.a, free)]
                block_sums = [
                    math.comb(al + fl, fl + 1) * math.prod(totals[:l] + totals[l + 1 :]) - 1
                    if fl
                    else 0
                    for l, (al, fl) in enumerate(zip(params.a, free))
                ]
                values = (0 if s[i] == 0 or free[i] else s[i] for s in odd)
            else:
                block_sums = [n - params.b[i] if l == i else params.b[i] for l in range(k)]
                values = (sum(s) - 2 * s[i] for s in odd)
            by_block[key] = block_sums, min(values, default=None)
        block_sums, thresholds[f] = by_block[key]
        y0 = list(itertools.chain.from_iterable(map(itertools.repeat, block_sums, params.b)))
        if f.kind == "coord":
            y0[params.position(f.i, f.j)] = 0
        sums[f] = tuple(y0)
    return facets, MappingProxyType(sums), MappingProxyType(thresholds)


def build_semigroup(a: Sequence[int], b: Sequence[int]) -> AffineSemigroup:
    return build_semigroup_from_params(SVParams.of(a, b))


def _low_generators(params: SVParams, shapes: Sequence[tuple[int, ...]]) -> Iterator[Vec]:
    """The generators of coordinate sum at most 3, lazily, in an order that
    spans early, over the block sums s of total 2 or 3 in `shapes`
    (`block_sum_tuples`), in decreasing lexicographic order.  First a star
    per s: the generator with all of each s_i on the block's last
    coordinate, then, one block at a time, those that move one unit of
    s_i > 0 to another coordinate of the block.  These reach each
    difference e_q - e_last inside every block with s_i > 0, and, as their
    first nonzero coordinates differ, they rarely meet a pivot of an
    earlier one in `Sublattice.spanned_by`.  Then every generator of sum
    at most 3, so that none is left out."""
    tuples = [s for s in reversed(shapes) if sum(s) <= 3]
    for s in tuples:
        base = [(0,) * (bi - 1) + (si,) for si, bi in zip(s, params.b)]
        yield sum(base, ())
        for i, (si, bi) in enumerate(zip(s, params.b)):
            if si:
                head, tail = sum(base[:i], ()), sum(base[i + 1 :], ())
                for q in range(bi - 1):
                    moved = tuple(int(p == q) for p in range(bi - 1)) + (si - 1,)
                    yield head + moved + tail
    for s in tuples:
        for parts in itertools.product(*map(_exact_compositions, s, params.b)):
            yield sum(parts, ())


def build_semigroup_from_params(params: SVParams) -> AffineSemigroup:
    shapes = tuple(block_sum_tuples(params))
    facets, sums, thresholds = facet_list(params, shapes)
    form, group = closed_form_group(params)
    # Two containments certify span(generators) = group.  Every generator
    # lies in the group: the form's test reads only block sums, so it runs
    # once per block-sum tuple (`GroupForm.contains_sums`).  And the
    # generators of sum <= 3 already span it: in the full case each e_p is
    # 3e_p - 2e_p, (e_p + e_q + e_r) - (e_q + e_r) or (e_p + 2e_q) - 2e_q,
    # whichever the block degrees allow, and the smaller groups are spanned
    # in sum two.  Lying in the group, they span it once their echelon basis
    # has its rank and pivot product (`Sublattice.spanned_by`), which stops
    # there, so no generator vector is kept.
    in_group = all(map(form.contains_sums, shapes))
    if not (in_group and group.spanned_by(_low_generators(params, shapes))):
        raise RuntimeError(f"generator lattice does not match its closed form for {params}")
    # The listed sum-two masks are exactly the ray masks, already in order.
    pairs = sum_two_masks(params, facets)
    ray_masks, ray_pairs = tuple(pairs), tuple(pairs.values())
    return AffineSemigroup(
        params, group, form, facets, ray_masks, sums, thresholds, shapes, ray_pairs
    )


def extreme_rays(s: AffineSemigroup) -> tuple[Vec, ...]:
    """Primitive generators (primitive inside the group) of the extreme rays.

    The face of a generator is cut out by the facets it lies on, and every
    nonzero face contains an extreme ray spanned by a generator, whose
    incidence mask contains the face's.  The cone is pointed, so a
    generator spans an extreme ray iff its incidence mask is maximal among
    the generators' masks: one of `s.ray_masks`, each read off a generator
    e_p + e_q of sum two (`sum_two_masks`), whose positions the model keeps
    (`s.ray_pairs`).  In a rank-one cone every mask is zero, and that lone
    mask is maximal.

    Each ray's vector comes off its pair.  For p != q, e_p + e_q has
    content 1 and lies in the group, so it is the ray's primitive group
    vector.  For p = q, the ray holds e_p and the generator 2 e_p, and it
    is e_p when the group holds it: one group test per diagonal ray.
    """
    rays = []
    for p, q in s.ray_pairs:
        g = [0] * s.n
        g[q] = 1
        if p != q or not s.group_member(g):
            g[p] += 1
        rays.append(tuple(g))
    return tuple(sorted(rays))
