"""The affine semigroup model attached to parameters (k, a, b).

The semigroup lives in Z^n with n = sum(b), coordinates indexed by pairs
(i, j) with 1 <= i <= k, 1 <= j <= b_i, ordered lexicographically.  Its
generators are the lattice points with block sums at most a_i and total
coordinate sum at least two.  Their group is the closed form of
`closed_form_group`, certified against the generators in both directions
when the model is built: every generator lies in it, and the generators of
coordinate sum at most three already span it.  From the generators we
derive the cone they span with its facet list, the facet-incidence table
(which facets each generator lies on) and each facet's generator sum, all
from one transposition of the generators into coordinate columns.

Facets and extreme rays are read off the face lattice, held as int masks,
under one premise: every facet of the cone is a coordinate hyperplane or
the balance hyperplane of a block of degree one (the half-spaces of
`ConeHRep`).  Faces are ordered by their generator sets, so a candidate
hyperplane cuts a facet iff its generator set is maximal among the proper
candidate faces, and, dually, a generator spans an extreme ray iff its
facet-incidence mask is maximal among the generators' masks
(`maximal_masks`).  No rank is taken.  The double-description oracle of
the test suite checks the premise for n <= 6.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import Sublattice, Vec, primitive, smith_normal_form, vscale

GROUP_FULL = "full"          # the whole of Z^n
GROUP_BALANCED = "balanced"  # two blocks, equal block sums
GROUP_EVEN = "even"          # even total coordinate sum
GROUP_ZERO = "zero"          # the zero lattice


@dataclass(frozen=True)
class SVParams:
    """Normalized parameters: k blocks with degrees a and sizes b.

    Pairs (a_i, b_i) are sorted lexicographically at construction, so the
    degree vector is ascending; the permutation taking the caller's order to
    the normalized one is kept for reporting but ignored by equality.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    original_a: tuple[int, ...] = field(compare=False, default=())
    original_b: tuple[int, ...] = field(compare=False, default=())
    permutation: tuple[int, ...] = field(compare=False, default=())

    @classmethod
    def of(cls, a: Sequence[int], b: Sequence[int]) -> "SVParams":
        a, b = tuple(a), tuple(b)
        if len(a) != len(b) or not a:
            raise ValueError("a and b must be nonempty and of equal length")
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in a + b):
            raise ValueError("all entries of a and b must be positive integers")
        order = sorted(range(len(a)), key=lambda i: (a[i], b[i]))
        return cls(
            a=tuple(a[i] for i in order),
            b=tuple(b[i] for i in order),
            original_a=a,
            original_b=b,
            permutation=tuple(order),
        )

    def __post_init__(self):
        if list(self.a) != sorted(self.a):
            raise ValueError("degree vector must be ascending; use SVParams.of")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return sum(self.b)

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


def _compositions(total: int, parts: int) -> list[Vec]:
    """All vectors of `parts` nonnegative integers with sum at most `total`,
    in lexicographic order."""
    if parts == 0:
        return [()]
    return [
        (x,) + rest for x in range(total + 1) for rest in _compositions(total - x, parts - 1)
    ]


def enumerate_generators(params: SVParams) -> tuple[Vec, ...]:
    """All lattice points with block sums <= a_i and total sum >= 2.

    Returned in graded lexicographic order (total sum, then lex).  The
    vectors are built grade by grade from the last block to the first:
    the tails of total t over blocks i.. are each block-i vector v, in
    lexicographic order, followed by the tails of total t - |v| over the
    blocks after it, so every grade stays sorted and no vector is summed.
    """
    tails: list[list[Vec]] = [[()]]  # by total; over no blocks, the empty tail
    for ai, bi in zip(reversed(params.a), reversed(params.b)):
        grades: list[list[Vec]] = [[] for _ in range(len(tails) + ai)]
        for v in _compositions(ai, bi):
            for t, rests in enumerate(tails, start=sum(v)):
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


@dataclass(frozen=True)
class ConeHRep:
    """Half-space description: all coordinates nonnegative, plus one balance
    inequality per block of degree one."""

    params: SVParams
    balance_blocks: tuple[int, ...]

    def balance_value(self, v: Sequence[int], i: int) -> int:
        return sum(v) - 2 * self.params.block_sum(v, i)

    def contains(self, v: Sequence[int]) -> bool:
        if any(x < 0 for x in v):
            return False
        return all(self.balance_value(v, i) >= 0 for i in self.balance_blocks)


def facet_value(params: SVParams, f: FacetId, v: Sequence[int]) -> int:
    """Value of the facet's supporting functional at v (nonnegative on the cone)."""
    if f.kind == "coord":
        return v[params.position(f.i, f.j)]
    return sum(v) - 2 * params.block_sum(v, f.i)


@dataclass(frozen=True)
class AffineSemigroup:
    params: SVParams
    generators: tuple[Vec, ...]
    group: Sublattice
    group_tag: str
    cone: ConeHRep
    facets: tuple[FacetId, ...]
    # One facet-incidence mask per generator: bit t is set iff the generator
    # lies on facets[t].
    incidence: tuple[int, ...]
    # The coordinatewise sum of the generators lying on each facet (the zero
    # vector for a facet without generators).  Derived from the fields
    # above, so equality and hashing ignore it.
    facet_sums: dict[FacetId, Vec] = field(compare=False)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def rank(self) -> int:
        return self.group.rank

    @cached_property
    def group_exponent(self) -> int:
        """Largest invariant factor of the group basis.  A primitive vector
        of the group's span has a multiple in the group with factor dividing
        this number."""
        if not self.group.basis:
            return 1
        return max(smith_normal_form([list(row) for row in self.group.basis]))

    def facet_generators(self, f: FacetId) -> tuple[Vec, ...]:
        """The generators lying on the facet f, read from the incidence table."""
        bit = 1 << self.facets.index(f)
        return tuple(g for g, m in zip(self.generators, self.incidence) if m & bit)

    @cached_property
    def membership(self):
        """The semigroup's one exact membership engine; it also holds the
        normality verdicts, one per window radius."""
        # Imported here: membership.py imports this module.
        from .membership import SemigroupMembership

        return SemigroupMembership(self)

    def group_member(self, v: Sequence[int]) -> bool:
        # Closed-form check; the group is certified against the generators
        # when the model is built.
        return closed_form_member(self.params, self.group_tag, v)

    def max_generator_coordinate(self) -> int:
        return max((max(g) for g in self.generators), default=0)

    def to_dict(self) -> dict:
        """JSON form of the model for report embedding; vectors are arrays
        in the lexicographic index order."""
        return {
            "params": {"k": self.params.k, "a": list(self.params.a), "b": list(self.params.b)},
            "indices": [list(ij) for ij in self.params.indices()],
            "generators": [list(g) for g in self.generators],
            "group": {
                "rank": self.group.rank,
                "tag": self.group_tag,
                "basis": [list(row) for row in self.group.basis],
            },
            "cone": {"balance_blocks": list(self.cone.balance_blocks)},
            "facets": [f.label() for f in self.facets],
        }


def closed_form_group(params: SVParams) -> tuple[str, Sublattice]:
    """The group spanned by the generators, in closed form.

    It is all of Z^n except in three cases: two blocks of degree one (equal
    block sums), one block of degree two (even coordinate sum), one block of
    degree one (zero).
    """
    n = params.n
    if params.k == 1 and params.a[0] == 1:
        return GROUP_ZERO, Sublattice(n, ())
    if params.k == 1 and params.a[0] == 2:
        rows = []
        for j in range(n - 1):
            row = [0] * n
            row[j], row[j + 1] = 1, -1
            rows.append(tuple(row))
        row = [0] * n
        row[n - 1] = 2
        rows.append(tuple(row))
        return GROUP_EVEN, Sublattice.from_generators(rows, n)
    if params.k == 2 and params.a == (1, 1):
        rows = []
        anchor = params.position(2, 1)
        for p in range(n):
            if p == anchor:
                continue
            row = [0] * n
            row[p] = 1
            row[anchor] = 1 if p in params.block_positions(1) else -1
            rows.append(tuple(row))
        return GROUP_BALANCED, Sublattice.from_generators(rows, n)
    rows = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return GROUP_FULL, Sublattice.from_generators(rows, n)


def closed_form_member(params: SVParams, tag: str, v: Sequence[int]) -> bool:
    """Membership of v in the closed-form group with the given tag."""
    if tag == GROUP_FULL:
        return True
    if tag == GROUP_EVEN:
        return sum(v) % 2 == 0
    if tag == GROUP_BALANCED:
        return params.block_sum(v, 1) == params.block_sum(v, 2)
    return not any(v)


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks that are maximal by inclusion, by decreasing bit
    count; the sort is stable, so masks of one count keep their first-seen
    order.  A lone zero mask is maximal, and beside any other mask it is
    not."""
    maximal: list[int] = []
    for m in sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True):
        for keep in maximal:
            if m & keep == m:
                break
        else:
            maximal.append(m)
    return maximal


def facet_list(
    params: SVParams, generators: Sequence[Vec]
) -> tuple[tuple[FacetId, ...], tuple[int, ...], dict[FacetId, Vec]]:
    """Facet identifiers of the cone spanned by the generators, with the
    facet-incidence table (one mask per generator, bit t for facet t) and
    each facet's generator sum.

    The candidates are the coordinate hyperplanes and the balance
    hyperplanes of the blocks of degree one; every facet is one of them
    (the premise of the module doc).  A candidate's face is held as its
    generator set, one int with bit g for generator g.  A candidate
    containing every generator cuts no proper face; among the others, the
    facets are the maximal faces (`maximal_masks`), since every proper face
    lies in a facet.  A rank-one cone keeps its origin facet, whose face
    has no generators, and a cone without generators has no facets.
    Candidates cutting the same face are reported once, first in the
    canonical order, which is the order the candidates are built in.
    Everything is read from one transposition of the generators: a
    candidate's column marks the generators on it, and a facet's generator
    sum is the sum of each coordinate column over its column.
    """
    if not generators:
        return (), (), {}
    candidates = [FacetId("coord", i, j) for (i, j) in params.indices()]
    coordinates = list(zip(*generators))  # one value per generator, per position
    columns = [tuple(map(operator.not_, values)) for values in coordinates]
    totals = list(map(sum, generators))
    for i in range(1, params.k + 1):
        if params.a[i - 1] == 1:
            block = params.block_positions(i)
            block_sums = map(sum, zip(*coordinates[block.start : block.stop]))
            candidates.append(FacetId("balance", i))
            columns.append(tuple(t == 2 * s for t, s in zip(totals, block_sums)))
    whole_cone = (1 << len(generators)) - 1  # the face of every generator
    faces: dict[int, tuple[FacetId, tuple[bool, ...]]] = {}  # face -> first cut
    for f, column in zip(candidates, columns):
        # The face as one int, bit g for generator g, read as a binary numeral.
        face = int("".join(map("01".__getitem__, reversed(column))), 2)
        if face != whole_cone:
            faces.setdefault(face, (f, column))
    facet_faces = set(maximal_masks(faces))
    kept = [cut for face, cut in faces.items() if face in facet_faces]
    incidence = [0] * len(generators)
    for t, (_, column) in enumerate(kept):
        for g in itertools.compress(range(len(generators)), column):
            incidence[g] |= 1 << t
    sums = {
        f: tuple(sum(itertools.compress(values, column)) for values in coordinates)
        for f, column in kept
    }
    return tuple(f for f, _ in kept), tuple(incidence), sums


def build_semigroup(a: Sequence[int], b: Sequence[int]) -> AffineSemigroup:
    return build_semigroup_from_params(SVParams.of(a, b))


def build_semigroup_from_params(params: SVParams) -> AffineSemigroup:
    gens = enumerate_generators(params)
    tag, group = closed_form_group(params)
    # Two containments certify span(gens) = group.  Every generator lies in
    # the group, and the generators of sum <= 3 (a prefix in graded order)
    # already span it: in the full case each e_p is 3e_p - 2e_p,
    # (e_p + e_q + e_r) - (e_q + e_r) or (e_p + 2e_q) - 2e_q, whichever the
    # block degrees allow, and the smaller groups are spanned in sum two.
    low = itertools.takewhile(lambda g: sum(g) <= 3, gens)
    if not all(closed_form_member(params, tag, g) for g in gens) or (
        Sublattice.from_generators(low, params.n) != group
    ):
        raise RuntimeError(f"generator lattice does not match its closed form for {params}")
    cone = ConeHRep(
        params,
        tuple(i for i in range(1, params.k + 1) if params.a[i - 1] == 1),
    )
    facets, incidence, sums = facet_list(params, gens)
    return AffineSemigroup(params, gens, group, tag, cone, facets, incidence, sums)


def primitive_in_group(s: AffineSemigroup, v: Sequence[int]) -> Vec:
    """The least positive multiple of the primitive vector along v that lies
    in the group (v in the group's span)."""
    p = primitive(v)
    for t in range(1, s.group_exponent + 1):
        cand = vscale(t, p)
        if s.group.member(cand):
            return cand
    raise RuntimeError("no small multiple of the ray direction lies in the group")


def extreme_rays(s: AffineSemigroup) -> tuple[Vec, ...]:
    """Primitive generators (primitive inside the group) of the extreme rays.

    The face of a generator is cut out by the facets it lies on, and every
    nonzero face contains an extreme ray spanned by a generator, whose
    incidence mask contains the face's.  The cone is pointed, so a
    generator spans an extreme ray iff its incidence mask is maximal among
    the generators' masks (`maximal_masks`).  In a rank-one cone every mask
    is zero, and that lone mask is maximal.
    """
    on_rays = set(maximal_masks(s.incidence))
    directions = {
        primitive(g) for g, mask in zip(s.generators, s.incidence) if mask in on_rays
    }
    return tuple(sorted({primitive_in_group(s, d) for d in directions}))
