"""Oracles for the tests.

The geometric facet and ray oracle runs the double description method in
the span of the cone, independent of the model's derived facet list and
ray masks.  The slow routes the model's fast paths replaced are kept
here too, so each fast path can be compared with the route it replaced:
generators by filtering each block's whole box, the facet list with an
HNF rank of every candidate face or with a fraction-free rank test that
stops at rank - 1 (`rank_reaches`), the extreme rays by that rank test
on the facet normals and the annihilator of the group, a region's block-sum tuples by
filtering the whole box product of its block ranges, the first hole by
the predicate walk that asks membership of every block-sum tuple of the
hole region, one per orbit of the swaps of equal blocks
(`walk_first_hole`), and by the plain walk, with no use of block symmetry,
a region's largest total with the points of each tuple at it from
filtering each block's whole box (`oracle_points_of_sum`), not from the
package's point walk, a region's range of totals by a scan of m out from
0 and bisection of its ends (`scan_total_range`), the least mask of
every orbit of facet subsets, those that fill a block in part among them
(`all_orbit_masks`), the cone test on the maximal faces (`coned`), the
`--evidence` record with every complex that is not coned off built
(`built_j_record`), listed on every orbit (`all_orbit_j_records`) and on
every proper nonempty facet subset in mask order (`every_j_record`), not
on the orbits the verdict visits with the Euler characteristic read off
block states, the Cohen-Macaulay loop
over every orbit of J with each pi_J that is not coned off built face by
face (`orbit_loop_verdict`, `maximal_acyclicity`), not over the orbits
that fill or miss each block with the cone test and the Euler
characteristic read off block states, the complex pi_J built on the
facets themselves, the facet-subset complexes as sorted vertex tuples
(closure, Euler characteristic, F2 boundary rows and integer ranks indexed
by tuple), reduced homology from
exact integer ranks alone, with no F2 certificate, the maximal masks of
a facet subset by an `any` scan, the facet-incidence table of every
generator by the walk that builds the generators (`incidence_masks`, the
reference for the model's ray masks), the facet list, incidence table,
facet sums and S_F thresholds from one transposition of the generators
into coordinate columns, and the facet sums and S_F thresholds
one facet at a time, with one `facet_value` per (facet, odd-sum
generator) pair, the facet sums counted per block-sum tuple, the span
certificate of the model build as the Hermite basis of every generator of
coordinate sum at most three and as the early-stopping echelon span of
those generators (`low_generators`), the facet list with one candidate
per position (`position_facet_list`), the Gorenstein witness of a rank-one cone by a
point-by-point scan of its line, and the least multiple of a direction in
the group by trying every multiple up to the group's exponent, and by
trying p and 2p (`primitive_in_group`, the route of the extreme rays
before they were read off their sum-two pairs, `primitive_pair_rays`),
with the listing of every generator of sum two (`every_sum_two_mask`),
whose maximal masks stand beside the model's listing of the pairs that
span rays, which runs no maximality filter.  The exact
normality test has a brute-force Hilbert basis of the normalization with
membership as a sum of generators.  Stanley's criterion has the dense
route it replaced (`dense_stanley_gorenstein`): the facet functionals on
the group basis (`facet_value_rows`), solved by a fraction-free
Gauss-Jordan elimination (`solve_unique`), itself checked against a
rational solve on `Fraction` entries.  The bounded S_F search has its
plain scan of every multiple.  The compositions of a total are the multisets
`combinations_with_replacement` lists (`multiset_compositions`), and the
h-vector count walks those with one `math.comb` per factor
(`composition_h_vector`).  The closed-form count of the Hilbert function
has the walk it replaced, one membership question per block-sum tuple,
each re-checked by the knapsack (`walk_hilbert_counts`, `walk_h_vector`).
The smoothness verdict has its Smith normal form route, which takes the
Smith invariants of the rays' coordinates in the group basis, and the C
gcd of the vector kernels a Python Euclid.
The cone's half-space description (`cone_contains`) and the four
closed-form groups are written out here by hand.  The package's span, rank and kernel, all on
one echelon pass, have the Hermite normal form with its transform as
reference (`hermite_sublattice`, `hermite_rank`, `hermite_kernel`), and
every oracle here that ranks, spans or takes a kernel goes through it, so
none of them shares the elimination it checks; the Smith normal form sits
beside it.  The membership engine's even-sum fact has its constructive
proof, `decompose`, which writes a member out as a sum of generators.
The routes that crossed every block with every block, or ran once per
facet, before the model read its block types and facet classes live
here too: the facet list with one box pass over every (kind, block)
class (`block_facet_list`), the span certificate with one decomposition
per block (`block_spans_closed_form`), the ray count by a loop over
block pairs (`pair_ray_count`), the S_F premise checked facet by facet
(`facet_premise_holds`), the literal S_F re-check with one membership
call per facet (`facet_sf_scan`, gathered per class as `class_sf_scan`)
and g_F facet by facet (`facet_gcd`).  S' = S has the search it ran
before it read the normality witness, narrowed to every S_F on every cone
that is not normal (`narrowed_s_prime`).
The dense tables the model no longer keeps live here: the generator
vectors (`generator_vectors`), the group's Hermite basis written out
(`dense_group`, `oracle_group`) as a `DenseLattice`, the `Sublattice`
with the membership, coordinates, span and index tests that left the
package, and every facet's generator sum as a vector
(`dense_facet_sums`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from svtangent.lattice import (
    Sublattice,
    Vec,
    _echelon_rows,
    _hermite_rows,
    vscale,
)
from svtangent.model import (
    AffineSemigroup,
    FacetId,
    GroupForm,
    SVParams,
    _basis_rows,
    _box_meets,
    _decomposition,
    facet_value,
    maximal_masks,
)
from svtangent.toricideal import _compositions, _exact_compositions
from svtangent import hoatrung
from svtangent.hoatrung import (
    CMVerdict,
    GorensteinResult,
    SPrimeResult,
    difference_regions,
    s_prime_equals_s,
)
from svtangent.membership import SmoothnessVerdict, _sum_of_shapes, find_holes, is_normal
from svtangent.regions import EngineOverflow, Region
from svtangent.simplicial import AbstractComplex

ORACLE_DIMENSION_CAP = 6


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def vgcd(u: Sequence[int]) -> int:
    """The nonnegative gcd of the entries, 0 for a zero or empty vector
    (`math.gcd`, exact on Python ints)."""
    return math.gcd(*u)

# The four closed-form groups: all of Z^n, even total, two blocks of equal
# sums (both balances pinned), and the zero lattice.
FULL = GroupForm()
EVEN = GroupForm(parity=0)
BALANCED = GroupForm(parity=0, pinned=(1, 2))
ZERO = GroupForm(parity=0, zero=True)


@functools.lru_cache(maxsize=16)
def generator_vectors(params: SVParams) -> tuple[Vec, ...]:
    """All lattice points with block sums <= a_i and total sum >= 2, in
    graded lexicographic order (total sum, then lex).

    They are built grade by grade from the last block to the first: the
    tails of total t over blocks i.. are each block-i vector v, in
    lexicographic order, followed by the tails of total t - |v| over the
    blocks after it, so every grade stays sorted and no vector is summed.
    The model keeps neither them nor a list of their block sums
    (`block_sum_tuples`).
    """
    tails: list[list[Vec]] = [[()]]  # by total; over no blocks, the empty tail
    for i in range(params.k, 0, -1):
        grades: list[list[Vec]] = [[] for _ in range(len(tails) + params.a[i - 1])]
        for v in _compositions(params.a[i - 1], params.b[i - 1]):
            for t, rests in zip(itertools.count(sum(v)), tails):
                grades[t].extend([v + rest for rest in rests])
        tails = grades
    return tuple(itertools.chain.from_iterable(tails[2:]))


@functools.lru_cache(maxsize=16)
def block_sum_tuples(params: SVParams) -> tuple[tuple[int, ...], ...]:
    """The block sums s of the generators, listed in lexicographic order:
    s_i <= a_i and sum(s) >= 2.  The generators with block sums s are the
    products over the blocks of the compositions of s_i into b_i parts
    (nonnegative, in order).  The list route that the model's box queries
    (`model._box_meets`) and closed forms replaced."""
    boxes = (range(ai + 1) for ai in params.a)
    return tuple(s for s in itertools.product(*boxes) if sum(s) >= 2)


def listed_facet_gcd(s: AffineSemigroup, f: FacetId) -> int:
    """g_F over the listed block sums t of the generators
    (`FacetClass.gcd`, from `model.facet_list`): the gcd of total - 2 t_i on a balance facet,
    of t_i on a coordinate facet of a block with b_i = 1, and, with b_i >=
    2, of every value 0..t_i, which the generators at t take at the
    facet's coordinate."""
    i, tuples = f.i - 1, block_sum_tuples(s.params)
    if f.kind == "balance":
        return math.gcd(*(sum(t) - 2 * t[i] for t in tuples))
    if s.params.b[i] == 1:
        return math.gcd(*(t[i] for t in tuples))
    return math.gcd(*itertools.chain.from_iterable(range(t[i] + 1) for t in tuples))


def listed_odd_shape(s: AffineSemigroup, sums: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The first listed block sums of a generator of odd total that fit
    under `sums` with the remainder in the cone, or None: the scan that
    `SemigroupMembership._odd_shape` replaced."""
    for shape in block_sum_tuples(s.params):
        rest = list(map(operator.sub, sums, shape))
        if sum(shape) % 2 and min(rest) >= 0 and all(
            sum(rest) >= 2 * rest[i - 1] for i in s.params.balance_blocks
        ):
            return shape
    return None


class DenseLattice(Sublattice):
    """A `Sublattice` with the dense tests the package no longer runs: the
    span of generators by one echelon pass, coordinates and membership by
    reduction along the Hermite basis, and the index of a span by the
    product of the pivots of its final echelon rows.  It equals every
    `Sublattice` with the same basis."""

    def __eq__(self, other):
        if not isinstance(other, Sublattice):
            return NotImplemented
        return (self.dim, self.basis) == (other.dim, other.basis)

    __hash__ = Sublattice.__hash__

    @classmethod
    def from_generators(cls, gens: Iterable[Sequence[int]], dim: int) -> "DenseLattice":
        """The lattice the generators span, by one echelon pass and a
        reduction above its pivots."""
        return cls(dim, _hermite_rows(_echelon_rows(gens, dim)))

    def _pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x) for row in self.basis]

    def _pivot_product(self) -> int:
        return math.prod(row[p] for row, p in zip(self.basis, self._pivots()))

    def coordinates_of(self, v: Sequence[int]) -> Optional[Vec]:
        """Integer coordinates of v in the basis, or None if v is outside."""
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        residue = list(v)
        coeffs = []
        for row, p in zip(self.basis, self._pivots()):
            if residue[p] % row[p]:
                return None
            c = residue[p] // row[p]
            coeffs.append(c)
            if c:
                for i in range(self.dim):
                    residue[i] -= c * row[i]
        if any(residue):
            return None
        return tuple(coeffs)

    def member(self, v: Sequence[int]) -> bool:
        return self.coordinates_of(v) is not None

    __contains__ = member

    def spanned_by(self, members: Iterable[Sequence[int]]) -> bool:
        """Whether `members`, vectors that all lie in this lattice, span it:
        one echelon pass over them ends with this basis's rank and pivot
        product.  A member outside this lattice is not detected."""
        return echelon_pivots(members, self.dim) == (self.rank, self._pivot_product())

    def index_of(self, members: Iterable[Sequence[int]]) -> Optional[int]:
        """The index in this lattice of the span of `members`, vectors that
        all lie in it, or None when they span a smaller rank: the ratio of
        the pivot products, which at equal rank share their pivot columns."""
        rank, product = echelon_pivots(members, self.dim)
        return None if rank < self.rank else product // self._pivot_product()


def echelon_pivots(members: Iterable[Sequence[int]], dim: int) -> tuple[int, int]:
    """The rank of the span of `members`, vectors of length `dim`, and the
    product of the pivots of the final rows of one echelon pass over them
    (`lattice._echelon_rows`)."""
    rows = _echelon_rows(members, dim)
    return len(rows), math.prod(row[c] for c, row in rows.items())


def dense(n: int, row: Mapping[int, int]) -> Vec:
    """The vector of length n with the entries of the sparse `row`."""
    v = [0] * n
    for p, c in row.items():
        v[p] += c
    return tuple(v)


def dense_group(params: SVParams, form: GroupForm) -> DenseLattice:
    """The group of `form` with its Hermite basis written out densely, the
    n x n table the model no longer keeps (`model._basis_rows`)."""
    rows = (dense(params.n, row) for row in _basis_rows(params, form))
    return DenseLattice(params.n, tuple(rows))


def oracle_group(s: AffineSemigroup) -> DenseLattice:
    """The model's group as a dense lattice (`dense_group`)."""
    return dense_group(s.params, s.group_form)


def dense_facet_sums(s: AffineSemigroup) -> dict[FacetId, Vec]:
    """Every facet's generator sum written out (`AffineSemigroup.facet_sum`)."""
    return {f: s.facet_sum(f) for f in s.facets}


def cone_contains(params: SVParams, v: Sequence[int]) -> bool:
    """The cone's half-space description: every coordinate nonnegative, and
    the balance total - 2 * s_i nonnegative on every block i of degree one."""
    if any(x < 0 for x in v):
        return False
    return all(
        sum(v) - 2 * params.block_sum(v, i) >= 0
        for i in range(1, params.k + 1)
        if params.a[i - 1] == 1
    )


def product_filter_generators(params: SVParams) -> tuple[Vec, ...]:
    """The generators, by filtering all (a_i + 1)^b_i tuples of each block
    for block sum <= a_i, in graded lexicographic order."""
    block_vectors = []
    for ai, bi in zip(params.a, params.b):
        vecs = [v for v in itertools.product(range(ai + 1), repeat=bi) if sum(v) <= ai]
        block_vectors.append(vecs)
    gens = []
    for combo in itertools.product(*block_vectors):
        v = tuple(itertools.chain.from_iterable(combo))
        if sum(v) >= 2:
            gens.append(v)
    gens.sort(key=lambda v: (sum(v), v))
    return tuple(gens)


def incidence_masks(params: SVParams, facets: Sequence[FacetId]) -> tuple[int, ...]:
    """The facet-incidence table: one mask per generator, in the order of
    `generator_vectors`, bit t set iff the generator lies on facets[t].

    It is the walk of `generator_vectors` with each vector replaced by its
    mask, so no vector is built: a generator's mask is the OR of its
    blocks' masks.  Block i's vector v carries the bits of the coordinate
    facets of block i on which v vanishes, and, when |v| = 1, the bit of
    the balance facet of block i, which the generator lies on only at total
    2 (a balance facet has a_i = 1, and the balance t - 2|v| vanishes iff
    t = 2|v| = 2), so the balance bits are cleared above grade 2.
    """
    coordinate_bits = [0] * params.n
    balance_bits = [0] * (params.k + 1)
    for t, f in enumerate(facets):
        if f.kind == "coord":
            coordinate_bits[params.position(f.i, f.j)] = 1 << t
        else:
            balance_bits[f.i] = 1 << t
    tails: list[list[int]] = [[0]]
    for i in range(params.k, 0, -1):
        ai, block = params.a[i - 1], params.block_positions(i)
        bits = coordinate_bits[block.start : block.stop]
        grades: list[list[int]] = [[] for _ in range(len(tails) + ai)]
        for v in _compositions(ai, len(bits)):
            m = sum(itertools.compress(bits, map(operator.not_, v)))
            if sum(v) == 1:
                m |= balance_bits[i]
            for t, rests in zip(itertools.count(sum(v)), tails):
                grades[t].extend([m | r for r in rests] if m else rests)
        tails = grades
    if any(balance_bits):
        coordinate_only = ~sum(balance_bits)
        for grade in tails[3:]:
            grade[:] = [m & coordinate_only for m in grade]
    return tuple(itertools.chain.from_iterable(tails[2:]))


def facet_generators(s: AffineSemigroup, f: FacetId) -> tuple[Vec, ...]:
    """The generators lying on the facet f, read from the incidence table."""
    bit = 1 << s.facets.index(f)
    masks = incidence_masks(s.params, s.facets)
    return tuple(g for g, m in zip(generator_vectors(s.params), masks) if m & bit)


def hnf_facet_list(
    params: SVParams, generators, group: Sublattice
) -> tuple[tuple[FacetId, ...], tuple[int, ...]]:
    """The facet list and incidence table with one `facet_value` per
    (candidate, generator) pair and the full HNF rank of every candidate
    face, which must equal rank - 1."""
    r = group.rank
    if r == 0:
        return (), (0,) * len(generators)
    candidates = [FacetId("coord", i, j) for (i, j) in params.indices()]
    candidates += [
        FacetId("balance", i) for i in range(1, params.k + 1) if params.a[i - 1] == 1
    ]
    facets: list[FacetId] = []
    columns: list[tuple[bool, ...]] = []
    for f in candidates:
        column = tuple(facet_value(params, f, g) == 0 for g in generators)
        if all(column):
            continue
        on_face = [g for g, z in zip(generators, column) if z]
        face_rank = hermite_rank(on_face, params.n) if on_face else 0
        if face_rank != r - 1 or column in columns:
            continue
        facets.append(f)
        columns.append(column)
    incidence = tuple(
        sum(1 << t for t, column in enumerate(columns) if column[g])
        for g in range(len(generators))
    )
    return tuple(facets), incidence


def rank_reaches(rows: Iterable[Sequence[int]], target: int) -> bool:
    """True iff the rows contain `target` linearly independent ones.

    Fraction-free elimination into an echelon basis: each new row is
    cleared at the pivots of the rows kept so far (multiplying through
    instead of dividing) and divided by its content, and the scan stops as
    soon as `target` rows are kept, so a long list of rows is read only as
    far as the answer needs.  A `target` of zero or less always holds.
    """
    if target <= 0:
        return True
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in rows:
        row = list(row)
        for p, b in basis:
            c = row[p]
            if c:
                d = b[p]
                row = [d * x - c * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        g = vgcd(row)
        if g > 1:
            row = [x // g for x in row]
        basis.append((pivot, row))
        if len(basis) >= target:
            return True
    return False


def rank_facet_list(
    params: SVParams, generators, group: Sublattice
) -> tuple[tuple[FacetId, ...], tuple[int, ...], dict[FacetId, Vec]]:
    """The facet list, incidence table and facet sums, certifying each
    candidate face by `rank_reaches` at rank - 1: a candidate containing
    some but not all generators meets the span of the cone in a proper
    subspace, so its generators have rank at most r - 1, and reaching
    r - 1 makes it a facet.  Candidates cutting the same face are kept
    once, first in the canonical order."""
    r = group.rank
    if r == 0:
        return (), (0,) * len(generators), {}
    candidates = [FacetId("coord", i, j) for (i, j) in params.indices()]
    coordinates = list(zip(*generators))
    columns = [tuple(x == 0 for x in values) for values in coordinates]
    for i in range(1, params.k + 1):
        if params.a[i - 1] == 1:
            f = FacetId("balance", i)
            candidates.append(f)
            columns.append(tuple(facet_value(params, f, g) == 0 for g in generators))
    kept: dict[tuple[bool, ...], FacetId] = {}  # column -> facet, in order
    for f, column in zip(candidates, columns):
        if all(column) or column in kept:
            continue
        if rank_reaches(itertools.compress(generators, column), r - 1):
            kept[column] = f
    incidence = tuple(
        sum(1 << t for t, column in enumerate(kept) if column[g])
        for g in range(len(generators))
    )
    sums = {
        f: tuple(sum(itertools.compress(values, column)) for values in coordinates)
        for column, f in kept.items()
    }
    return tuple(kept.values()), incidence, sums


def rank_extreme_rays(s: AffineSemigroup) -> tuple[Vec, ...]:
    """The extreme rays by rank: a generator spans one iff the normals of
    the facets it lies on, together with a basis of the annihilator of the
    group, have rank n - 1 (`rank_reaches`), taken once per distinct
    incidence mask."""
    n = s.n
    if not generator_vectors(s.params):
        return ()
    units = [tuple(int(p == q) for q in range(n)) for p in range(n)]
    normals = [tuple(facet_value(s.params, f, e) for e in units) for f in s.facets]
    annihilator = list(hermite_kernel(oracle_group(s).basis, n).basis)
    on_ray: dict[int, bool] = {}
    directions = set()
    for g, mask in zip(generator_vectors(s.params), incidence_masks(s.params, s.facets)):
        if mask not in on_ray:
            rows = annihilator + [v for t, v in enumerate(normals) if mask >> t & 1]
            on_ray[mask] = rank_reaches(rows, n - 1)
        if on_ray[mask]:
            directions.add(primitive(g))
    return tuple(sorted(set(exponent_primitives_in_group(s, directions).values())))


def primitive(u: Sequence[int]) -> Vec:
    """Divide out the content; the zero vector is returned unchanged."""
    g = math.gcd(*u)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


def primitive_in_group(s: AffineSemigroup, v: Sequence[int]) -> Vec:
    """The least positive multiple of the primitive vector p along v that
    lies in the group (v in the group's span).  Every closed-form group has
    index 1 or 2 in the lattice points of its span, so that multiple is p
    or 2p."""
    p = primitive(v)
    for cand in (p, vscale(2, p)):
        if s.group_member(cand):
            return cand
    raise RuntimeError(f"{list(v)} does not lie in the span of the group")


def every_sum_two_mask(params: SVParams, facets: Sequence[FacetId]) -> dict[int, tuple[int, int]]:
    """The distinct facet-incidence masks of every generator e_p + e_q of
    coordinate sum two, each with the first pair p <= q, in lexicographic
    order, that has it: the full listing, which `model.sum_two_masks`
    replaced by one of the pairs that span rays, with no filter after it."""
    bits = {f: 1 << t for t, f in enumerate(facets)}
    coordinate = [bits.get(FacetId("coord", i, j), 0) for i, j in params.indices()]
    balance = [bits.get(FacetId("balance", i), 0) for i in range(1, params.k + 1)]
    block = [i for i, bi in enumerate(params.b) for _ in range(bi)]
    every = sum(coordinate)
    masks: dict[int, tuple[int, int]] = {}
    for p, q in itertools.combinations_with_replacement(range(params.n), 2):
        i, l = block[p], block[q]
        if i == l and params.a[i] == 1:
            continue
        m = every & ~(coordinate[p] | coordinate[q])
        if i != l:
            m |= balance[i] | balance[l]
        masks.setdefault(m, (p, q))
    return masks


def primitive_pair_rays(s: AffineSemigroup) -> tuple[Vec, ...]:
    """The extreme rays read off their pairs, as dense vectors: the least
    multiple in the group of the primitive vector along each generator
    e_p + e_q of `s.ray_pairs` (`primitive_in_group`).  The package builds
    none of them (`membership.ray_span_index`)."""
    rays = []
    for p, q in s.ray_pairs:
        g = [0] * s.n
        g[p] += 1
        g[q] += 1
        rays.append(primitive_in_group(s, g))
    return tuple(sorted(rays))


def exponent_primitives_in_group(
    s: AffineSemigroup, directions: Iterable[Sequence[int]]
) -> dict[Vec, Vec]:
    """Each direction v (in the group's span) mapped to the least positive
    multiple of its primitive vector lying in the group, by trying every
    multiple up to the group's exponent, the largest invariant factor of
    its basis, with the lattice's own membership test."""
    group = oracle_group(s)
    basis = [list(row) for row in group.basis]
    exponent = max(smith_normal_form(basis)) if basis else 1
    out = {}
    for v in directions:
        p = primitive(v)
        multiples = (vscale(t, p) for t in range(1, exponent + 1))
        out[tuple(v)] = next(m for m in multiples if group.member(m))
    return out


def columnar_facet_list(
    params: SVParams, generators: Sequence[Vec]
) -> tuple[tuple[FacetId, ...], tuple[int, ...], dict[FacetId, Vec]]:
    """The facet list, incidence table and facet sums from one transposition
    of the generators: a candidate's column marks the generators on it, its
    face is that column read as one int (bit g for generator g), and the
    facets are the maximal proper faces (`maximal_masks`), candidates
    cutting the same face kept once, first in the canonical order.  A
    facet's generator sum is the sum of all generators less the sum of the
    generators off it."""
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
        face = int("".join(map("01".__getitem__, reversed(column))), 2)
        if face != whole_cone:
            faces.setdefault(face, (f, column))
    facet_faces = set(maximal_masks(faces))
    kept = [cut for face, cut in faces.items() if face in facet_faces]
    incidence = [0] * len(generators)
    for t, (_, column) in enumerate(kept):
        for g in itertools.compress(range(len(generators)), column):
            incidence[g] |= 1 << t
    whole = tuple(map(sum, coordinates))
    sums = {}
    for f, column in kept:
        off = itertools.compress(generators, map(operator.not_, column))
        sums[f] = tuple(map(operator.sub, whole, map(sum, zip(*off))))
    return tuple(f for f, _ in kept), tuple(incidence), sums


def columnar_odd_thresholds(
    params: SVParams, generators: Sequence[Vec], facets: Sequence[FacetId]
) -> dict[FacetId, Optional[int]]:
    """Each facet's least facet value over the generators of odd total, from
    one transposition of those generators: the least entry of a coordinate
    facet's column, and for a balance facet the least total minus twice the
    block sum (None when no generator has odd total)."""
    odd = [g for g in generators if sum(g) % 2]
    columns = list(zip(*odd))  # one value per odd generator, per position
    totals = list(map(sum, odd))
    thresholds: dict[FacetId, Optional[int]] = {}
    for f in facets:
        if not odd:
            thresholds[f] = None
        elif f.kind == "coord":
            thresholds[f] = min(columns[params.position(f.i, f.j)])
        else:
            block = params.block_positions(f.i)
            block_sums = map(sum, zip(*columns[block.start : block.stop]))
            thresholds[f] = min(t - 2 * b for t, b in zip(totals, block_sums))
    return thresholds


def _generator_count(free: Sequence[int], s: Sequence[int]) -> int:
    """The number of generators with block sums s and free[l] free
    coordinates in block l (the others 0): the product over the blocks of
    the number of compositions of s_l into free[l] parts."""
    return math.prod(
        math.comb(sl + parts - 1, parts - 1) if parts else int(sl == 0)
        for sl, parts in zip(s, free)
    )


def counted_facet_sums(params: SVParams, facets: Sequence[FacetId]) -> dict[FacetId, Vec]:
    """Each facet's generator sum, counted per block-sum tuple s: in block l
    it is the sum of s_l times the number of generators at s on the facet
    (`_generator_count`), over the tuples at which the facet holds
    generators, divided by the number of block-l coordinates free on it."""
    tuples = block_sum_tuples(params)
    sums = {}
    for f in facets:
        i = f.i - 1
        free = list(params.b)
        if f.kind == "coord":
            free[i] -= 1
            on = tuples
        else:
            on = [s for s in tuples if sum(s) == 2 * s[i]]
        counted = [(s, _generator_count(free, s)) for s in on]
        block_sums = [
            sum(s[l] * count for s, count in counted) // free[l] if free[l] else 0
            for l in range(params.k)
        ]
        y0 = list(itertools.chain.from_iterable(map(itertools.repeat, block_sums, params.b)))
        if f.kind == "coord":
            y0[params.position(f.i, f.j)] = 0
        sums[f] = tuple(y0)
    return sums


def hermite_span_certificate(s: AffineSemigroup) -> bool:
    """The span half of the model build's group certificate, by the Hermite
    basis of every generator of coordinate sum at most three (a prefix of
    the generators in graded order)."""
    low = itertools.takewhile(lambda g: sum(g) <= 3, generator_vectors(s.params))
    return hermite_sublattice(low, s.n) == oracle_group(s)


def position_facet_list(
    params: SVParams, shapes: Sequence[tuple[int, ...]]
) -> tuple[tuple[FacetId, ...], Mapping[FacetId, Vec], Mapping[FacetId, Optional[int]]]:
    """The facet list, facet sums and S_F thresholds of `model.facet_list`
    with one candidate per position, the route it replaced: the AND of the
    candidate masks per candidate over `shapes`, and a maximality pass that
    compares every pair of candidates.  Each facet's generator sum is built
    from its block sums, one facet at a time."""
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


def low_generators(params: SVParams, shapes: Sequence[tuple[int, ...]]) -> Iterator[Vec]:
    """The generators of coordinate sum at most 3, lazily, in an order that
    spans early, over the block sums s of total 2 or 3 in `shapes`
    (`block_sum_tuples`), in decreasing lexicographic order: the route of
    the model build's span certificate before it decomposed each basis row
    (`Sublattice.spanned_by` over these).  First a star per s: the
    generator with all of each s_i on the block's last coordinate, then,
    one block at a time, those that move one unit of s_i > 0 to another
    coordinate of the block.  Then every generator of sum at most 3, so
    that none is left out."""
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


def per_facet_sums(s: AffineSemigroup) -> dict[FacetId, Vec]:
    """Each facet's generator sum: its generators listed from the incidence
    table and summed coordinatewise (the zero vector if there are none)."""
    sums = {}
    for f in s.facets:
        gens = facet_generators(s, f)
        sums[f] = tuple(map(sum, zip(*gens))) if gens else (0,) * s.n
    return sums


def per_facet_profiles(s: AffineSemigroup) -> dict[FacetId, Optional[int]]:
    """The closed form of every S_F, one facet at a time: the facet sums of
    `per_facet_sums`, and the odd threshold as the least `facet_value` of
    the facet over the odd-sum generators."""
    odd_gens = [g for g in generator_vectors(s.params) if sum(g) % 2 == 1]
    profiles = {}
    for f, y0 in per_facet_sums(s).items():
        zero_positions = {p for p in range(s.n) if y0[p] == 0}
        expected = {s.params.position(f.i, f.j)} if f.kind == "coord" else set()
        if any(y0) and zero_positions != expected:
            raise RuntimeError(f"facet {f.label()} has unexpected vanishing coordinates")
        profiles[f] = min((facet_value(s.params, f, g) for g in odd_gens), default=None)
    return profiles


def line_scan_gorenstein(s: AffineSemigroup) -> GorensteinResult:
    """Gorenstein witness for one-dimensional semigroups, by the line scan
    the region engine replaced.

    The single facet is the origin, so the complement is the whole group
    minus the semigroup, a set of multiples of the primitive direction u.
    The multiples in the semigroup form a numerical semigroup whose gaps are
    bounded by the square of the largest generator multiple, so the largest
    gap is found exactly and uniqueness is automatic on a line.
    """
    u = primitive_in_group(s, generator_vectors(s.params)[0])
    step = sum(u)
    multiples = sorted({sum(g) // step for g in generator_vectors(s.params)})
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
                reason="the complement is not the shifted semigroup at the witness",
            )
    return GorensteinResult(
        "consistent", x0, (x0,),
        reason="complement equals the shifted semigroup along the line",
    )


def _sum_tuple_ok(region: Region, s: tuple[int, ...]) -> bool:
    total = sum(s)
    if region.total_parity is not None and total % 2 != region.total_parity:
        return False
    for i, lo in region.balance_lo.items():
        if total - 2 * s[i - 1] < lo:
            return False
    for i, hi in region.balance_hi.items():
        if total - 2 * s[i - 1] > hi:
            return False
    if region.total_hi is not None and total > region.total_hi:
        return False
    if region.total_lo is not None and total < region.total_lo:
        return False
    return True


def tied_blocks(region: Region) -> list[bool]:
    """tied[j]: block j (from 0) equals block j - 1 in the params and in
    every bound of the region, so swapping their sums maps the region's
    block-sum tuples onto themselves."""
    p = region.params
    blocks = [
        (p.a[j], p.b[j], region.balance_lo.get(j + 1), region.balance_hi.get(j + 1),
         [(region.lo[q], region.hi[q]) for q in p.block_positions(j + 1)])
        for j in range(p.k)
    ]
    return [j > 0 and blocks[j] == blocks[j - 1] for j in range(p.k)]


def swap_walk(
    region: Region, predicate: Optional[Callable[[tuple[int, ...]], bool]] = None
) -> Iterator[tuple[int, ...]]:
    """The region's block-sum tuples that are non-decreasing within each run
    of tied blocks (`tied_blocks`) and meet the predicate, in walk order:
    one tuple per orbit of the swaps of tied blocks, the lexicographically
    least, for a predicate invariant under those swaps.  The engine's walk
    once pruned its subtrees by this rule; here it filters the plain walk
    (`Region._feasible_sums`)."""
    tied = tied_blocks(region)
    for t in region._feasible_sums():
        if all(not tied[j] or t[j - 1] <= t[j] for j in range(len(t))):
            if predicate is None or predicate(t):
                yield t


def box(radius, narrow: Optional[Callable[[Region], None]] = None) -> Callable[[Region], Region]:
    """Narrows a region in place to the box [-radius, radius]^n, then by
    `narrow` when given, and returns it: as a `narrow`, it boxes the
    unboxed region of `membership.find_holes` (whose coordinates are
    already nonnegative), and applied to the regions of
    `hoatrung.difference_regions` it gives the box their walks need."""

    def apply(region: Region) -> Region:
        for q in range(region.params.n):
            region.clamp_lo(q, -radius)
            region.clamp_hi(q, radius)
        if narrow is not None:
            narrow(region)
        return region

    return apply


def hole_region(
    s: AffineSemigroup,
    radius: Optional[int] = None,
    narrow: Optional[Callable[[Region], None]] = None,
) -> Region:
    """The region `membership.find_holes` searches, in the group at odd
    total with every balance nonnegative, narrowed in place when `narrow`
    is given, inside the box [0, M]^n: M the radius (inf for no box) or,
    by default, the cap `hole_cap`, which then caps the total too."""
    cap = hole_cap(s, narrow) if radius is None else None
    region = Region.of_group(s, [0] * s.n, [radius if cap is None else cap] * s.n, total_parity=1)
    for i in s.params.balance_blocks:
        region.clamp_balance_lo(i, 0)
    if narrow is not None:
        narrow(region)
    if cap is not None:
        region.total_hi = cap if region.total_hi is None else min(region.total_hi, cap)
    return region


def hole_cap(s: AffineSemigroup, narrow: Optional[Callable[[Region], None]] = None) -> int:
    """2k(1 + B) - 1, k the number of blocks and B >= 0 the largest lower
    bound the narrowed, unboxed hole region puts on a block sum (the sum of
    its coordinates' lower bounds), a balance functional or the total: some
    least hole meeting the narrowing has at most this total
    (`plain_first_hole`)."""
    region = hole_region(s, math.inf, narrow)
    lower = max(
        0, *s.params.block_sums(region.lo), *region.balance_lo.values(), region.total_lo or 0
    )
    return 2 * s.params.k * (1 + lower) - 1


def walk_first_hole(
    s: AffineSemigroup,
    radius: Optional[int] = None,
    narrow: Optional[Callable[[Region], None]] = None,
    *,
    swap_invariant: bool = True,
) -> Optional[Vec]:
    """The first hole of the group of s in the box of `hole_region`,
    optionally narrowed, by the predicate walk `membership.find_holes` ran
    before it read the hole off the blocks: the block-sum tuples of
    `hole_region` in walk order, one per orbit of the swaps of tied blocks
    (membership is invariant under swapping blocks with equal (a_i, b_i))
    unless `swap_invariant` is False, each asked for membership; the first
    non-member is realized by `Region._greedy_point`."""
    sums_member = s.membership.sums_member
    region = hole_region(s, radius, narrow)
    tuples = swap_walk(region) if swap_invariant else region._feasible_sums()
    for t in tuples:
        if not sums_member(t):
            return region._greedy_point(t)
    return None


def plain_first_hole(
    s: AffineSemigroup,
    radius: Optional[int] = None,
    narrow: Optional[Callable[[Region], None]] = None,
) -> Optional[Vec]:
    """`walk_first_hole` by the plain walk, every block-sum tuple of odd
    total in the lexicographic order of the box product, with no use of
    block symmetry.

    With no radius the walk runs in the box [0, M]^n with the total capped
    at M = 2k(1 + B) - 1 (`hole_cap`), and then it finds a hole iff the
    narrowed, unboxed region holds one.  Proof (Bruns-Gubeladze,
    *Polytopes, Rings, and K-Theory*, ch. 2).  Let T be the semigroup of
    block-sum tuples of S in Z^k, of rank at most k.  A nonnegative point
    is in the cone, the group or S iff its block sums are in the cone, the
    group or T, and the coordinate bounds of a block only bound its sum,
    so the holes of the region are the points over the holes of T that
    meet the block-sum bounds.  Every extreme ray of T's cone is the image
    of one of S's cone, and each of those holds a generator of coordinate
    sum two (`model.sum_two_masks`), so every extreme ray of T's cone holds
    an element of T of total 2.  Take a hole h of T of least total among
    those meeting the bounds; it lies in a simplicial cone spanned by at
    most rank(T) such elements w_1, ..., w_d (Caratheodory), h = sum of
    c_i w_i with c_i >= 0.  If some c_i >= 1 + B, then h - w_i is in the
    cone (its coefficients stay nonnegative) and the group, and outside T
    (else h would be in T).  It meets every bound: each block sum, balance
    functional and the total is nonnegative on the cone, so subtracting
    w_i keeps every upper bound, and a lower bound on one of them that w_i
    does not move keeps its value, while one that w_i raises by at least
    1 is at least c_i - 1 >= B at h - w_i.  Its total is smaller, a
    contradiction.  So every c_i < 1 + B, and the total of h is 2 sum(c_i)
    < 2d(1 + B) <= 2k(1 + B); every coordinate of h is at most its total.

    A hole has one nonzero block sum (`membership.find_holes`), and with
    lower bounds of at most B the least odd sum a block allows is at most
    B + 1 <= M, so the box also holds the first hole of the unboxed region
    wherever the narrowing bounds nothing from above: that walk and
    `find_holes` then return the same point.
    """
    return walk_first_hole(s, radius, narrow, swap_invariant=False)


def gf_extremal(
    s: AffineSemigroup, radius: int, point_limit: int
) -> tuple[Optional[int], int, list[Vec]]:
    """The largest total of G_F in the box of this radius, the number of its
    elements at it capped at point_limit + 1, and the first point_limit of
    them in walk order: the extremal scan of a symmetric box that the exact
    top region of G_F replaced.  The two parity branches never share a
    total."""
    best, count, points = None, 0, []
    for region in difference_regions(s, (), s.facets):
        t, c, pts = box(radius)(region).max_total(point_limit)
        if t is not None and (best is None or t > best):
            best, count, points = t, c, pts
    return best, count, points


def block_ranges(region: Region) -> Optional[list[range]]:
    """The range of each block's sum over the region's box, or None if the
    region is infeasible or some coordinate interval is empty."""
    if region.infeasible or any(map(operator.gt, region.lo, region.hi)):
        return None
    p = region.params
    return [range(lo, hi + 1) for lo, hi in zip(p.block_sums(region.lo), p.block_sums(region.hi))]


def product_filter_sums(region: Region) -> list[tuple[int, ...]]:
    """The region's block-sum tuples, by filtering the whole box product of
    its block ranges, in the product's lexicographic order."""
    ranges = block_ranges(region)
    if ranges is None:
        return []
    return [s for s in itertools.product(*ranges) if _sum_tuple_ok(region, s)]


def oracle_points_of_sum(region: Region, s: Sequence[int]) -> list[Vec]:
    """The points with block sums s, each block by filtering its whole box,
    in lexicographic order."""
    p = region.params
    per_block = []
    for i in range(1, p.k + 1):
        axes = [range(region.lo[q], region.hi[q] + 1) for q in p.block_positions(i)]
        per_block.append([v for v in itertools.product(*axes) if sum(v) == s[i - 1]])
    return [tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*per_block)]


def plain_max_total(
    region: Region, point_limit: int = 4
) -> tuple[Optional[int], int, list[Vec]]:
    """`Region.max_total` by the plain walk: every block-sum tuple of the
    region, keeping those at the largest total seen so far, with the points
    of each from `oracle_points_of_sum`."""
    best: Optional[int] = None
    at_best: list[tuple[int, ...]] = []
    for s in region._feasible_sums():
        t = sum(s)
        if best is None or t > best:
            best, at_best = t, []
        if t == best:
            at_best.append(s)
    points: list[Vec] = []
    for s in at_best:
        for p in oracle_points_of_sum(region, s):
            if len(points) == point_limit:
                return best, point_limit + 1, points
            points.append(p)
    return best, len(points), points


def scan_total_range(region: Region) -> Optional[tuple]:
    """`Region.total_range` by the scan and bisection its closed form
    replaced.  Write the total T = parity + 2m: T is a total iff every
    block's ends (`Region._block_ends`) are in order, the lower ends sum to
    at most T and the upper ends to at least T, and each condition holds on
    an interval of m.  Let every finite bound and those constants be at
    most E - 1 in absolute value (E = the largest finite block bound sum or
    balance bound, plus 2, will do).  Past |m| = 2E every end is affine in
    m, so each condition is affine there and changes at most once, within
    |m| <= kE + 1.  So past R = max(2E, kE + 1) + 1 nothing changes: a scan
    out from 0 to R finds the interval if it is nonempty, and bisection its
    ends, an end at R meaning none."""
    if region.infeasible:
        return None
    p, parity = region.params, region.total_parity
    floors, rises, ceilings, falls = region._block_ends()

    def feasible(m: int) -> bool:
        lows = [max(l, m + r) for l, r in zip(floors, rises)]
        highs = [min(u, m + f) for u, f in zip(ceilings, falls)]
        total = parity + 2 * m
        return all(map(operator.le, lows, highs)) and sum(lows) <= total <= sum(highs)

    bounds = [*p.block_sums(region.lo), *p.block_sums(region.hi)]
    bounds += [*region.balance_lo.values(), *region.balance_hi.values()]
    e = max((abs(v) for v in bounds if abs(v) != math.inf), default=0) + 2
    reach = max(2 * e, p.k * e + 1) + 1
    near = next((m for m in sorted(range(-reach, reach + 1), key=abs) if feasible(m)), None)
    if near is None:
        return None
    # The feasible m are a prefix of each walk away from a feasible one.
    behind, ahead = range(near, -reach - 1, -1), range(near, reach + 1)
    low = near + 1 - bisect.bisect_left(behind, True, key=lambda m: not feasible(m))
    high = near - 1 + bisect.bisect_left(ahead, True, key=lambda m: not feasible(m))
    return (
        -math.inf if low == -reach else parity + 2 * low,
        math.inf if high == reach else parity + 2 * high,
    )


def coned(maximal: Sequence[int]) -> bool:
    """Whether the complex with these maximal masks is void or coned off by
    a vertex in every maximal face, hence acyclic: the cone test on the
    maximal faces that `hoatrung._pi_shape` reads off block states."""
    return not maximal or functools.reduce(operator.and_, maximal) != 0


def all_orbit_masks(s: AffineSemigroup) -> list[int]:
    """The least facet mask of every orbit of proper nonempty facet subsets
    under the block symmetries, in increasing order, those that fill a
    block in part among them: the enumeration `hoatrung._orbit_masks` cut
    down to the orbits that fill or miss each block.  The orbit of J is
    fixed by how many of each block's coordinate facets lie in J and
    whether its balance facet does; within a class of equal blocks, the
    least mask gives the balance facets to the first blocks and then the
    larger counts to the earlier blocks."""
    if len(s.facets) < 2:
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
        assert len(shapes) == 1 and len(coord[0]) in (0, bi), members
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


# The face count past which the oracles below give up building pi_J face by
# face, as the package did before it read pi_J's homology off its block
# states: the boundary of the 40-simplex, which CM3 (1,2),(1,40) asks for,
# has 2^40 faces.
FACE_COUNT_CAP = 200_000


def capped_complex(maximal: Sequence[int]) -> Optional[AbstractComplex]:
    """`AbstractComplex.from_maximal_masks` as it was with a face cap: None
    once the closure, built one size at a time downward with each distinct
    face once, holds more than FACE_COUNT_CAP faces (the empty face
    included)."""
    union = 0
    for m in maximal:
        union |= m
    positions = [t for t in range(union.bit_length()) if union >> t & 1]
    by_size: dict[int, set[int]] = {}
    for m in maximal:
        renumbered = sum(1 << i for i, t in enumerate(positions) if m >> t & 1)
        by_size.setdefault(m.bit_count(), set()).add(renumbered)
    levels: list[frozenset[int]] = []
    count, level = 0, set()
    for size in range(max(by_size, default=-1), -1, -1):
        level |= by_size.get(size, set())
        count += len(level)
        below: set[int] = set()
        for face in level:
            if count + len(below) > FACE_COUNT_CAP:
                return None
            rest = face
            while rest:
                low = rest & -rest
                below.add(face ^ low)
                rest ^= low
        levels.append(frozenset(level))
        level = below
    return AbstractComplex(tuple(positions), tuple(reversed(levels)))


def maximal_acyclicity(maximal: Sequence[int]) -> Optional[bool]:
    """Acyclicity of the complex with these maximal masks, vertex t for
    facet t, in three tiers: a void or coned-off complex is acyclic; a
    nonzero reduced Euler characteristic, from the level sizes of the built
    complex, certifies non-acyclicity; `is_acyclic` decides the rest.  None
    means the complex holds more than FACE_COUNT_CAP distinct faces, the
    empty face included (`capped_complex`)."""
    if coned(maximal):
        return True
    complex_ = capped_complex(maximal)
    if complex_ is None:
        return None
    return complex_.euler_characteristic_reduced() == 0 and complex_.is_acyclic()


def orbit_loop_verdict(s: AffineSemigroup, subset_cap: int = hoatrung.SUBSET_CAP) -> CMVerdict:
    """`hoatrung.cm_verdict` by the loop it replaced: every orbit of J
    (`all_orbit_masks`), each pi_J from its cut ray masks (`_pi_maximal`) and
    built face by face unless it is coned off (`maximal_acyclicity`), G_J
    listed (`_gj_scan`) where it is not acyclic, and a complex past
    FACE_COUNT_CAP with a nonempty G_J leaving the verdict undetermined
    unless a later J refutes."""
    if not s.facets:
        return CMVerdict("cm", "zero semigroup: polynomial ring")
    sprime = s_prime_equals_s(s)
    bound = sprime.bound

    def verdict(status: str, reason: str) -> CMVerdict:
        return CMVerdict(status, reason, sprime, bound)

    if not sprime.holds:
        return verdict(
            "not-cm", f"localized intersection exceeds the semigroup at {list(sprime.witness)}"
        )
    nf = len(s.facets)
    if nf > subset_cap:
        return verdict("undetermined", f"{nf} facets exceed the subset cap {subset_cap}")
    undetermined: Optional[str] = None
    for jmask in all_orbit_masks(s):
        acyclic = maximal_acyclicity(hoatrung._pi_maximal(s, jmask))
        if acyclic:
            continue
        j_facets = hoatrung._mask_facets(s, jmask)
        labels = [f.label() for f in j_facets]
        try:
            gj = hoatrung._gj_scan(s, j_facets)
        except EngineOverflow as err:
            return verdict("undetermined", f"region scan over budget for J={labels}: {err}")
        bound = max(bound, gj.bound)
        if gj.is_empty:
            continue
        if acyclic is False:
            return verdict(
                "not-cm",
                f"J={labels} has a non-acyclic complex "
                f"and a nonempty region (witness {list(gj.points[0])})",
            )
        if undetermined is None:
            undetermined = f"complex too large for J={labels} and its region is nonempty"
    if undetermined is not None:
        return verdict("undetermined", undetermined)
    return verdict(
        "cm",
        "localized intersection equals the semigroup and every facet subset "
        "is empty-or-acyclic",
    )


def built_j_record(s: AffineSemigroup, jmask: int) -> dict:
    """`hoatrung.j_record` by the route it replaced: a complex coned off by
    its maximal faces (`coned`) builds nothing and has zero ranks in
    degrees -1 up to its dimension; every other complex is built, and its
    ranks are reported, also where its Euler characteristic already
    settles it; past FACE_COUNT_CAP its ranks and acyclicity are None."""
    j_facets = hoatrung._mask_facets(s, jmask)
    maximal = hoatrung._pi_maximal(s, jmask)
    gj = hoatrung._gj_scan(s, j_facets)
    if coned(maximal):
        ranks = [0] * (max((m.bit_count() for m in maximal), default=-1) + 1)
    else:
        complex_ = capped_complex(maximal)
        ranks = None if complex_ is None else complex_.reduced_homology_ranks()
    return {
        "J": [f.label() for f in j_facets],
        "pi_maximal_faces": [
            [f.label() for f in hoatrung._mask_facets(s, m)] for m in maximal
        ],
        "homology_ranks": ranks,
        "acyclic": None if ranks is None else not any(ranks[1:]),
        "gj_status": gj.status,
        "gj_points": [list(p) for p in gj.points],
    }


def all_orbit_j_records(s: AffineSemigroup) -> tuple[list[dict], Optional[str]]:
    """`hoatrung.j_records` by the listing it replaced: the `built_j_record`
    of the least J of every orbit (`all_orbit_masks`), the cones among
    them, up to the first G_J scan over the engine budget, whose reason
    comes back (else None)."""
    records: list[dict] = []
    for jmask in all_orbit_masks(s):
        try:
            records.append(built_j_record(s, jmask))
        except EngineOverflow as err:
            labels = [f.label() for f in hoatrung._mask_facets(s, jmask)]
            return records, f"region scan over budget for J={labels}: {err}"
    return records, None


def every_j_record(s: AffineSemigroup) -> list[dict]:
    """The `built_j_record` of every proper nonempty facet subset J, in
    mask order: the listing `all_orbit_j_records` cuts down to the least
    mask of each orbit."""
    return [built_j_record(s, jmask) for jmask in range(1, (1 << len(s.facets)) - 1)]


def build_pi_j(s: AffineSemigroup, j_facets) -> AbstractComplex:
    """The complex on J whose faces are the subsets of J supporting a common
    nonzero semigroup element, on the facets themselves.

    A nonzero semigroup element vanishes on a facet functional iff every
    generator in one of its decompositions does, so the face test reduces to
    a common generator.
    """
    bits = [(f, 1 << s.facets.index(f)) for f in sorted(j_facets)]
    faces = []
    for mask in incidence_masks(s.params, s.facets):
        incident = tuple(f for f, bit in bits if mask & bit)
        if incident:
            faces.append(incident)
    return AbstractComplex.from_faces(faces)


def tuple_closure(maximal: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The faces spanned by int masks, each as the tuple of its set bits:
    the closure built one size at a time downward, as the CM loop built it
    before the complex kept its faces as masks."""
    by_size: dict[int, set[int]] = {}
    for m in maximal:
        by_size.setdefault(m.bit_count(), set()).add(m)
    faces: list[int] = []
    level: set[int] = set()
    for size in range(max(by_size, default=-1), -1, -1):
        level |= by_size.get(size, set())
        faces.extend(level)
        below: set[int] = set()
        for face in level:
            rest = face
            while rest:
                low = rest & -rest
                below.add(face ^ low)
                rest ^= low
        level = below
    return frozenset(map(mask_bits, faces))


def mask_bits(mask: int) -> tuple[int, ...]:
    """The set bits of the mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def faces_by_dim(faces: Iterable[tuple]) -> dict[int, list[tuple]]:
    """The sorted vertex tuples of each dimension, each list sorted."""
    out: dict[int, list[tuple]] = {}
    for f in faces:
        out.setdefault(len(f) - 1, []).append(f)
    for q in out:
        out[q].sort()
    return out


def boundary_indices(by_dim: dict[int, list[tuple]], q: int) -> list[list[int]]:
    """For each q-face in order, the indices among the sorted (q-1)-faces of
    the faces obtained by dropping its vertex 0, 1, ..., q."""
    index = {f: i for i, f in enumerate(by_dim.get(q - 1, []))}
    return [
        [index[f[:drop] + f[drop + 1:]] for drop in range(len(f))]
        for f in by_dim.get(q, [])
    ]


def f2_rank(rows: list[int]) -> int:
    """Rank over F2 of rows given as int bitmasks, each reduced by XOR
    against the pivot row keyed by its highest set bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def tuple_euler_reduced(faces: Iterable[tuple]) -> int:
    """The reduced Euler characteristic, one term per face tuple."""
    return sum((-1) ** (len(f) + 1) for f in faces)


def tuple_f2_ranks(faces: Iterable[tuple]) -> list[int]:
    """Reduced homology ranks over F2 in degrees -1, 0, ..., dim, from the
    F2 rank of every boundary matrix of the sorted face tuples, with no
    clearing."""
    by_dim = faces_by_dim(faces)
    if not by_dim:
        return []
    top = max(by_dim)
    rank = {
        q: f2_rank([sum(1 << i for i in lower) for lower in boundary_indices(by_dim, q)])
        for q in range(0, top + 1)
    }
    return [
        len(by_dim[q]) - rank.get(q, 0) - rank.get(q + 1, 0)
        for q in range(-1, top + 1)
    ]


def integer_homology_ranks(faces: Iterable[tuple]) -> list[int]:
    """Reduced homology ranks over Q in degrees -1, 0, ..., dim, from the
    exact integer rank of every boundary matrix of the sorted face tuples."""
    by_dim = faces_by_dim(faces)
    if not by_dim:
        return []
    top = max(by_dim)
    rank = {}
    for q in range(0, top + 1):
        index = {f: i for i, f in enumerate(by_dim[q - 1])}
        rows = []
        for lower in boundary_indices(by_dim, q):
            row = [0] * len(index)
            for drop, i in enumerate(lower):
                row[i] += (-1) ** drop
            rows.append(tuple(row))
        rank[q] = hermite_rank(rows, len(index))
    return [
        len(by_dim[q]) - rank.get(q, 0) - rank.get(q + 1, 0)
        for q in range(-1, top + 1)
    ]


def any_scan_maximal_masks(masks: Iterable[int], jmask: int) -> list[int]:
    """The maximal masks cut down to J, sorted by decreasing bit count with
    a `bin` count, then by increasing value, and tested for containment
    with `any`."""
    cut = sorted({m & jmask for m in masks if m & jmask},
                 key=lambda m: (-bin(m).count("1"), m))
    maximal: list[int] = []
    for m in cut:
        if not any(m & keep == m for keep in maximal):
            maximal.append(m)
    return maximal


class OracleUnavailable(Exception):
    """Raised when a geometric oracle is asked beyond its dimension cap."""


@dataclass(frozen=True)
class OracleFacet:
    """A facet found geometrically: the primitive inner normal expressed in
    the coordinates of the span basis, plus the set of generators on it."""

    normal_in_span: Vec
    zero_generators: frozenset


def _span_coordinates(s: AffineSemigroup) -> list[Vec]:
    coords = []
    group = oracle_group(s)
    for g in generator_vectors(s.params):
        c = group.coordinates_of(g)
        if c is None:
            raise RuntimeError("generator outside its own group")
        coords.append(c)
    return coords


def _initial_simplicial_rays(constraints: list[Vec], r: int) -> tuple[list[int], list[Vec]]:
    """Indices of r independent constraints plus the rays of their dual basis."""
    chosen: list[int] = []
    for idx, c in enumerate(constraints):
        if hermite_rank([constraints[i] for i in chosen] + [c], r) > len(chosen):
            chosen.append(idx)
        if len(chosen) == r:
            break
    if len(chosen) < r:
        raise RuntimeError("constraint set does not span the dual space")
    rays = []
    for pos in range(r):
        others = [constraints[chosen[t]] for t in range(r) if t != pos]
        if others:
            ker = hermite_kernel(others, r)
        else:
            ker = hermite_sublattice(
                [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)], r
            )
        if ker.rank != 1:
            raise RuntimeError("degenerate initial cone in double description")
        ray = ker.basis[0]
        if dot(ray, constraints[chosen[pos]]) < 0:
            ray = vscale(-1, ray)
        rays.append(primitive(ray))
    return chosen, rays


def facet_oracle(
    s: AffineSemigroup, dimension_cap: int = ORACLE_DIMENSION_CAP
) -> list[OracleFacet]:
    """Facets of the conic hull of the generators, via double description.

    Works dually: facet normals are the extreme rays of the cone of
    functionals (in span coordinates) that are nonnegative on every
    generator.  Exponential in bad cases, hence the dimension cap.
    """
    if s.n > dimension_cap:
        raise OracleUnavailable(f"dimension {s.n} exceeds oracle cap {dimension_cap}")
    r = s.rank
    if r == 0:
        return []
    constraints = _span_coordinates(s)  # generator g imposes <normal, g> >= 0
    if r == 1:
        sign = 1 if constraints[0][0] > 0 else -1
        return [
            OracleFacet(
                normal_in_span=(sign,),
                zero_generators=frozenset(
                    g for g, c in zip(generator_vectors(s.params), constraints) if c[0] == 0
                ),
            )
        ]
    chosen, rays = _initial_simplicial_rays(constraints, r)
    processed = [constraints[i] for i in chosen]

    for idx, c in enumerate(constraints):
        if idx in chosen:
            continue
        vals = [dot(ray, c) for ray in rays]
        if all(v >= 0 for v in vals):
            processed.append(c)
            continue
        zsets = [
            frozenset(t for t, pc in enumerate(processed) if dot(ray, pc) == 0)
            for ray in rays
        ]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays = [rays[i] for i in pos + zero]
        for ip, im in itertools.product(pos, neg):
            common = zsets[ip] & zsets[im]
            # Adjacency: no third ray vanishes on everything both vanish on.
            adjacent = True
            for other in range(len(rays)):
                if other in (ip, im):
                    continue
                if common <= zsets[other]:
                    adjacent = False
                    break
            if not adjacent:
                continue
            combo = vsub(vscale(vals[ip], rays[im]), vscale(vals[im], rays[ip]))
            new_rays.append(primitive(combo))
        processed.append(c)
        rays = []
        seen = set()
        for ray in new_rays:
            if ray not in seen:
                seen.add(ray)
                rays.append(ray)
    out = []
    for ray in rays:
        zero_gens = frozenset(
            g for g, c in zip(generator_vectors(s.params), constraints) if dot(ray, c) == 0
        )
        out.append(OracleFacet(primitive(ray), zero_gens))
    out.sort(key=lambda f: f.normal_in_span)
    return out


def dd_extreme_rays(
    s: AffineSemigroup, dimension_cap: int = ORACLE_DIMENSION_CAP
) -> tuple[Vec, ...]:
    """Extreme rays from the DD facets: a generator spans a ray iff the
    generators sharing all its facets span a line.  Each ray is given by the
    least multiple of its primitive direction lying in the group."""
    if s.n > dimension_cap:
        raise OracleUnavailable(f"dimension {s.n} exceeds oracle cap {dimension_cap}")
    if s.rank == 0:
        return ()
    facets = facet_oracle(s, dimension_cap)
    group = oracle_group(s)
    rays = set()
    for g in generator_vectors(s.params):
        incident = [f for f in facets if g in f.zero_generators]
        if incident:
            common = set.intersection(*(set(f.zero_generators) for f in incident))
            if hermite_rank(sorted(common), s.n) != 1:
                continue
        elif s.rank != 1:
            continue
        p = primitive(g)
        t = 1
        while not group.member(vscale(t, p)):
            t += 1
        rays.add(vscale(t, p))
    return tuple(sorted(rays))


def is_sum_of_generators(s: AffineSemigroup, v: Sequence[int], memo: dict) -> bool:
    """Whether v is a sum of generators, by a memoized search over the
    generators that fit under it: semigroup membership from the definition,
    with no use of block sums.  `memo` may be shared by calls on one s."""
    v = tuple(v)
    if not any(v):
        return True
    if v not in memo:
        memo[v] = any(
            is_sum_of_generators(s, vsub(v, g), memo)
            for g in generator_vectors(s.params)
            if all(a <= b for a, b in zip(g, v))
        )
    return memo[v]


def brute_force_hilbert_basis(s: AffineSemigroup) -> list[Vec]:
    """The Hilbert basis of the normalization of s (the lattice points of
    its cone in its group), by increasing total: the nonzero points of the
    cone and the group that are no sum of an earlier basis element and a
    nonzero such point, among every point of N^n of total at most 2n.

    Each element lies in the closed parallelepiped of linearly independent
    primitive ray vectors of the group, at most n of them, and each ray
    holds a generator of total two, so that bound is complete.  The cone is
    `cone_contains` and the group its Hermite basis; no block sum is used.
    """
    n, group = s.n, oracle_group(s)

    def normal_point(v) -> bool:
        return any(v) and cone_contains(s.params, v) and group.member(v)

    basis: list[Vec] = []
    for v in sorted(filter(normal_point, _compositions(2 * n, n)), key=sum):
        if not any(
            all(x >= y for x, y in zip(v, h)) and normal_point(vsub(v, h)) for h in basis
        ):
            basis.append(v)
    return basis


def fraction_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """rows @ x = rhs over the rationals by Gauss-Jordan elimination on
    `fractions.Fraction` entries: the unique solution as a tuple, or None
    when the system is inconsistent.  The columns must be independent."""
    work = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next(i for i in range(col, len(work)) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for i, row in enumerate(work):
            if i != col and row[col]:
                work[i] = [a - row[col] * b for a, b in zip(row, work[col])]
    if any(row[ncols] for row in work[ncols:]):
        return None
    return tuple(work[i][ncols] for i in range(ncols))


@dataclass(frozen=True)
class LinearSolve:
    """The answer of `solve_unique` to rows @ x = rhs.  A consistent system
    has the unique rational solution numerators / denominator, in lowest
    terms (denominator > 0, `left_kernel` None); an inconsistent one has
    `left_kernel`, a y with y @ rows = 0 and y . rhs != 0 (`numerators`
    None, denominator 0)."""

    numerators: Optional[Vec]
    denominator: int
    left_kernel: Optional[Vec] = None


def solve_unique(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> LinearSolve:
    """Solve rows @ x = rhs for a matrix of full column rank, exactly and
    fraction-free: the solve of `dense_stanley_gorenstein`.

    Gauss-Jordan elimination on [rows | rhs | identity], each row divided by
    the gcd of its entries after every step, so every row stays an integer
    combination u of the input rows, kept in its identity part, with its
    matrix part u @ rows and its rhs part u . rhs.  A row whose matrix part
    vanishes and whose rhs part does not gives the left-kernel certificate
    u; otherwise each pivot row reads off one coordinate of the solution.
    A ValueError is raised when the columns are dependent.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if len(rhs) != m or any(len(r) != ncols for r in rows):
        raise ValueError("ragged system")
    work = [
        list(row) + [b] + [int(i == j) for j in range(m)]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    pivots: list[int] = []  # the pivot column of work[t]
    for col in range(ncols):
        t = len(pivots)
        nz = [i for i in range(t, m) if work[i][col]]
        if not nz:
            raise ValueError("the columns of the system are dependent")
        i = min(nz, key=lambda i: abs(work[i][col]))
        work[t], work[i] = work[i], work[t]
        pivot = work[t]
        p = pivot[col]
        support = [(c, y) for c, y in enumerate(pivot) if y]
        for i, row in enumerate(work):
            a = row[col]
            if i == t or not a:
                continue
            if p != 1:
                row = [p * x for x in row]
            for c, y in support:
                row[c] -= a * y
            g = math.gcd(*row)
            work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    for row in work[ncols:]:
        if row[ncols]:
            return LinearSolve(None, 0, tuple(row[ncols + 1 :]))
    fractions = []
    for row, col in zip(work, pivots):
        p, e = row[col], row[ncols]
        g = math.gcd(p, e) * (1 if p > 0 else -1)
        fractions.append((e // g, p // g))
    denominator = math.lcm(*(d for _, d in fractions)) if fractions else 1
    numerators = tuple(e * (denominator // d) for e, d in fractions)
    return LinearSolve(numerators, denominator)


def facet_value_rows(s: AffineSemigroup) -> list[list[int]]:
    """Each facet's functional on the group basis, one row per facet, read
    off the columns of the basis with the facet's coefficient vector: e_p
    for the coordinate facet of position p, whose row is column p, and 1 -
    2 [q in block i] for the balance facet of block i, whose row is the
    basis rows' totals minus twice their block-i sums."""
    params = s.params
    basis = oracle_group(s).basis
    columns = list(zip(*basis))
    totals = [sum(v) for v in basis]
    rows = []
    for f in s.facets:
        if f.kind == "coord":
            rows.append(list(columns[params.position(f.i, f.j)]))
        else:
            block = map(sum, zip(*(columns[q] for q in params.block_positions(f.i))))
            rows.append([t - 2 * b for t, b in zip(totals, block)])
    return rows


def dense_stanley_gorenstein(s: AffineSemigroup) -> Optional[Vec]:
    """`hoatrung.stanley_gorenstein` by the dense route it replaced: the
    witness -x0, or None when the ring is not Gorenstein.

    sigma_F(x0) = 1 on every facet, in the coordinates c of the group
    basis, is one integer system, each facet's row (`facet_value_rows`)
    divided by its gcd; its rational solution, if any, is unique
    (`solve_unique`), and the ring is Gorenstein iff it exists and is
    integral.  A left-kernel certificate and a solution are each checked by
    substitution."""
    rows = []
    for f, values in zip(s.facets, facet_value_rows(s)):
        g = vgcd(values)
        if not g:
            raise RuntimeError(f"facet {f.label()} vanishes on the group")
        rows.append([v // g for v in values])
    solve = solve_unique(rows, [1] * len(rows))
    if solve.left_kernel is not None:
        y = solve.left_kernel
        if any(dot(y, column) for column in zip(*rows)) or not sum(y):
            raise RuntimeError("left-kernel certificate fails substitution")
        return None
    c, d = solve.numerators, solve.denominator
    if any(dot(row, c) != d for row in rows):
        raise RuntimeError("solution fails substitution")
    if d != 1:
        return None
    x0 = tuple(map(sum, zip(*(vscale(cj, v) for cj, v in zip(c, oracle_group(s).basis)))))
    return vscale(-1, x0)


def literal_sf_member(s: AffineSemigroup, f: FacetId, x: Sequence[int], multiples: int):
    """`hoatrung.sf_member` as the plain scan of the multiples N * y0 of the
    facet's generator sum, N from 0 to `multiples`, each point built and
    tested by `SemigroupMembership.member`: the least N with x + N * y0 in
    the semigroup, or None."""
    y0 = s.facet_sum(f)
    for n_mult in range(multiples + 1):
        if s.membership.member(tuple(a + n_mult * b for a, b in zip(x, y0))):
            return n_mult
    return None


def multiset_compositions(total: int, parts: int) -> Iterator[Vec]:
    """`toricideal._exact_compositions` from multisets: each vector of `parts`
    nonnegative integers with sum `total` is a multiset of `total` symbols
    from 0..parts - 1 (v_p copies of p), and
    `combinations_with_replacement` lists those in decreasing
    lexicographic order of the vectors."""
    for multiset in itertools.combinations_with_replacement(range(parts), total):
        counts = [0] * parts
        for p in multiset:
            counts[p] += 1
        yield tuple(counts)


def composition_h_vector(s: AffineSemigroup, degree: int) -> Optional[list[int]]:
    """`hoatrung._h_vector` with the tuples of each total from
    `multiset_compositions` and one `math.comb` per factor, each membership
    answer re-checked by the knapsack."""
    if degree < 0:
        return None
    b, memo, counts = s.params.b, {}, []
    for m in range(degree + 2):
        count = 0
        for t in multiset_compositions(m, s.params.k):
            member = s.membership.sums_member(t)
            if member != _sum_of_shapes(s, t, memo):
                raise RuntimeError(f"membership of block sums {list(t)} fails the knapsack")
            if member:
                count += math.prod(math.comb(ti + bi - 1, bi - 1) for ti, bi in zip(t, b))
        counts.append(count)
    d = s.rank
    h = [
        sum((-1) ** i * math.comb(d, i) * counts[j - 2 * i] for i in range(min(d, j // 2) + 1))
        for j in range(degree + 2)
    ]
    if h[-1] or min(h) < 0:
        return None
    return h[:-1]


def walk_hilbert_counts(s: AffineSemigroup, top: int) -> list[int]:
    """#S_0, ..., #S_top by the walk `hoatrung._hilbert_counts` replaced:
    over the block-sum tuples t of each total from
    `toricideal._exact_compositions`, one `sums_member` question per tuple,
    each answer re-checked by the knapsack `_sum_of_shapes` with one memo
    for the whole count, and prod C(t_i + b_i - 1, b_i - 1) points per
    member tuple from a table per block built entry by entry."""
    sums_member = s.membership.sums_member
    ways = []
    for bi in s.params.b:
        row = [1]
        for t in range(1, top + 1):
            row.append(row[-1] * (t + bi - 1) // t)
        ways.append(row)
    memo: dict[tuple[int, ...], bool] = {}
    counts = []
    for m in range(top + 1):
        count = 0
        for t in _exact_compositions(m, s.params.k):
            member = sums_member(t)
            if member != _sum_of_shapes(s, t, memo):
                raise RuntimeError(f"membership of block sums {list(t)} fails the knapsack")
            if member:
                count += math.prod(row[ti] for row, ti in zip(ways, t))
        counts.append(count)
    return counts


def walk_h_vector(s: AffineSemigroup, degree: int) -> Optional[list[int]]:
    """`hoatrung._h_vector` by the route it replaced: the counts of
    `walk_hilbert_counts`, and h_j as the sum over i of (-1)^i C(d, i)
    #S_(j - 2i), one `math.comb` per term."""
    if degree < 0:
        return None
    counts = walk_hilbert_counts(s, degree + 1)
    d = s.rank
    h = [
        sum((-1) ** i * math.comb(d, i) * counts[j - 2 * i] for i in range(min(d, j // 2) + 1))
        for j in range(degree + 2)
    ]
    if h[-1] or min(h) < 0:
        return None
    return h[:-1]


def euclid_gcd(u: Sequence[int]) -> int:
    """The nonnegative gcd of the entries by Euclid's algorithm on plain
    Python ints, 0 for a zero or empty vector."""
    g = 0
    for a in u:
        a, g = abs(a), abs(g)
        while a:
            g, a = a, g % a
    return g


def snf_is_smooth(s: AffineSemigroup) -> SmoothnessVerdict:
    """`membership.is_smooth` by the route it replaced: build every ray,
    then compare the ray count with the rank, and take the Smith normal
    form of the rays' coordinates in the group basis, a basis iff every
    invariant is 1."""
    if not s.facets:
        return SmoothnessVerdict("smooth", "zero semigroup: the model is a point")
    normal = is_normal(s)
    if normal.status == "not-normal":
        return SmoothnessVerdict("not-smooth", f"not normal: hole {list(normal.witness)}")
    rays = primitive_pair_rays(s)
    if len(rays) != s.rank:
        return SmoothnessVerdict("not-smooth", f"{len(rays)} extreme rays for rank {s.rank}")
    group = oracle_group(s)
    coords = [group.coordinates_of(r) for r in rays]
    if any(c is None for c in coords):
        raise RuntimeError("primitive ray generator outside the group")
    diag = smith_normal_form([list(c) for c in coords])
    if any(d != 1 for d in diag):
        return SmoothnessVerdict(
            "not-smooth", f"ray generators span a sublattice with invariants {diag}"
        )
    return SmoothnessVerdict("smooth", "primitive ray generators form a group basis")


def _hermite(work: list[list[int]], ncols: int, u: Optional[list[list[int]]]) -> None:
    """In-place row HNF of `work`; row operations mirrored on `u` if given."""
    m = len(work)

    def rowop_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        wi, wj = work[i], work[j]
        for c in range(ncols):
            wi[c] -= q * wj[c]
        if u is not None:
            ui, uj = u[i], u[j]
            for c in range(len(ui)):
                ui[c] -= q * uj[c]

    def rowswap(i: int, j: int) -> None:
        work[i], work[j] = work[j], work[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    pivot_row = 0
    for col in range(ncols):
        # Reduce all entries below pivot_row in this column to a single gcd.
        while True:
            nz = [i for i in range(pivot_row, m) if work[i][col] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(work[i][col]))
            rowswap(pivot_row, imin)
            done = True
            for i in range(pivot_row + 1, m):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot_row][col]
                    rowop_sub(i, pivot_row, q)
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < m and work[pivot_row][col] != 0:
            if work[pivot_row][col] < 0:
                work[pivot_row] = [-x for x in work[pivot_row]]
                if u is not None:
                    u[pivot_row] = [-x for x in u[pivot_row]]
            p = work[pivot_row][col]
            for i in range(pivot_row):
                q = work[i][col] // p  # floor division reduces into [0, p)
                if q:
                    rowop_sub(i, pivot_row, q)
            pivot_row += 1
            if pivot_row == m:
                break


def _hermite_work(rows: Sequence[Sequence[int]], ncols: Optional[int]) -> tuple[list[list[int]], int]:
    """The rows as mutable lists, with their common length, checked."""
    work = [list(r) for r in rows]
    if ncols is None:
        if not work:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    return work, ncols


def hermite_normal_form(
    rows: Sequence[Sequence[int]], ncols: Optional[int] = None
) -> tuple[list[Vec], list[Vec]]:
    """Row-style Hermite normal form by column-by-column gcd elimination.

    Returns (h, u) with h = u @ rows and u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), and zero rows sit at
    the bottom, so the nonzero rows are a canonical basis of the row space
    lattice and the rank is the number of nonzero rows.
    """
    work, ncols = _hermite_work(rows, ncols)
    m = len(work)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    _hermite(work, ncols, u)
    return [tuple(r) for r in work], [tuple(r) for r in u]


def hermite_basis(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[Vec]:
    """Nonzero rows of the HNF, without tracking the transform."""
    work, ncols = _hermite_work(rows, ncols)
    _hermite(work, ncols, None)
    return [tuple(r) for r in work if any(r)]


def hermite_sublattice(gens: Iterable[Sequence[int]], dim: int) -> Sublattice:
    """`DenseLattice.from_generators` by the Hermite normal form."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return Sublattice(dim, ())
    return Sublattice(dim, tuple(hermite_basis(gens, dim)))


def hermite_rank(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> int:
    """`lattice.integer_rank` by the Hermite normal form: its nonzero rows."""
    if not rows:
        return 0
    return len(hermite_basis(rows, ncols))


def hermite_kernel(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Sublattice:
    """`lattice.integer_kernel` by the Hermite normal form of the transpose:
    the rows of the transform whose HNF row vanishes."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if ncols == 0:
        return Sublattice(0, ())
    if not rows:
        units = [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
        return hermite_sublattice(units, ncols)
    transpose = [tuple(r[i] for r in rows) for i in range(ncols)]
    h, u = hermite_normal_form(transpose, len(rows))
    return hermite_sublattice([u[i] for i in range(ncols) if not any(h[i])], ncols)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form, d_1 | d_2 | ..., nonnegative.

    For a square full-rank matrix the product of the entries is the index
    of the row lattice in the ambient integer lattice.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # Find a nonzero pivot in the trailing submatrix.
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(work[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        work[t], work[pi] = work[pi], work[t]
        for r in work:
            r[t], r[pj] = r[pj], r[t]
        while True:
            # Clear column t with row operations.
            for i in range(t + 1, m):
                if work[i][t]:
                    q = work[i][t] // work[t][t]
                    for c in range(t, n):
                        work[i][c] -= q * work[t][c]
                    if work[i][t]:
                        work[t], work[i] = work[i], work[t]
            if any(work[i][t] for i in range(t + 1, m)):
                continue
            # Clear row t with column operations.
            for j in range(t + 1, n):
                if work[t][j]:
                    q = work[t][j] // work[t][t]
                    for r in work:
                        r[j] -= q * r[t]
                    if work[t][j]:
                        for r in work:
                            r[t], r[j] = r[j], r[t]
            if any(work[t][j] for j in range(t + 1, n)):
                continue
            if any(work[i][t] for i in range(t + 1, m)):
                continue
            break
        # Enforce divisibility of every remaining entry by the pivot.
        fixed = False
        p = work[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if work[i][j] % p:
                    for c in range(t, n):
                        work[t][c] += work[i][c]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(abs(p))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def decompose(s: AffineSemigroup, v: Sequence[int]) -> Optional[list[Vec]]:
    """A witness decomposition of v into generators, sorted, or None when
    v is not a member (`s.membership`): the constructive proof of the
    even-sum fact the membership engine rests on.

    An odd-sum member first gives up the odd generator of the engine's
    shape (`_odd_reducer`), and the even-sum rest is written as generators
    of sum two (`_decompose_even`).  The parts must re-sum to v and each
    must be a generator by definition, or RuntimeError is raised.
    """
    v = tuple(v)
    if not s.membership.member(v):
        return None
    parts: list[Vec] = []
    rest = v
    if sum(v) % 2 == 1:
        g = _odd_reducer(s, v)
        if g is None:
            raise RuntimeError("member with odd sum but no odd reduction")
        parts.append(g)
        rest = vsub(v, g)
    parts.extend(_decompose_even(s.params, rest))
    total = tuple(map(sum, zip(*parts))) if parts else (0,) * len(v)
    if total != v:
        raise RuntimeError("decomposition does not re-sum to its input")
    if not all(_is_generator(s.params, g) for g in parts):
        raise RuntimeError("decomposition used a non-generator")
    return sorted(parts)


def _block_sums(params: SVParams, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(params.block_sum(v, i) for i in range(1, params.k + 1))


def _is_generator(params: SVParams, g: Vec) -> bool:
    """The definition of a generator: nonnegative, block sums at most
    a_i, coordinate sum at least two."""
    return (
        min(g) >= 0
        and sum(g) >= 2
        and all(t <= ai for t, ai in zip(_block_sums(params, g), params.a))
    )


def _odd_reducer(s: AffineSemigroup, v: Vec) -> Optional[Vec]:
    """A generator of odd coordinate sum fitting under v with the
    remainder still in the cone: the engine's odd block-sum shape
    (`SemigroupMembership._odd_shape`), placed greedily inside the
    blocks."""
    params = s.params
    shape = s.membership._odd_shape(_block_sums(params, v))
    if shape is None:
        return None
    g = [0] * len(v)
    for i, need in enumerate(shape, start=1):
        for q in params.block_positions(i):
            g[q] = min(need, v[q])
            need -= g[q]
    return tuple(g)


def _decompose_even(params: SVParams, v: Vec) -> list[Vec]:
    """Write an even-sum cone point as sum-two generators, constructively.

    Induction on half the coordinate sum: if all mass sits in one block
    that block has degree at least two and within-block pairs suffice;
    otherwise subtract a cross-block unit pair chosen to touch every
    block whose balance inequality is tight.
    """
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


# ---------------------------------------------------------------------------
# The per-block and per-facet routes that the block types and the
# facet-class table replaced
# ---------------------------------------------------------------------------


def block_free_counts(params: SVParams, f: FacetId) -> list[int]:
    """How many coordinates of each block are free on the facet: all of
    them but the facet's own."""
    free = list(params.b)
    if f.kind == "coord":
        free[f.i - 1] -= 1
    return free


def block_facet_list(
    params: SVParams,
) -> tuple[tuple[FacetId, ...], Mapping[FacetId, Vec], Mapping[FacetId, Optional[int]]]:
    """The facet list as the model built it once per (kind, block) class:
    the facets, each facet's block values and its odd threshold.  One
    `_box_meets` pass per distinct box over every class, the kept loop over
    every pair of classes, and the block values computed anew for each
    kept class (see `model.facet_list` for the facts it reads)."""
    k, n, a, b = params.k, params.n, params.a, params.b
    classes = [("coord", i) for i in range(1, k + 1)]
    classes += [("balance", i) for i in params.balance_blocks]
    zeros = (0,) * k
    every = (zeros, a, 2, math.inf)
    where = [
        (zeros, (*a[: i - 1], 0, *a[i:]), 2, math.inf) if bi == 1 else every
        for i, bi in enumerate(b, 1)
    ]
    where += [((*zeros[: i - 1], 1, *zeros[i:]), a, 2, 2) for i in params.balance_blocks]

    def on(box: tuple) -> int:
        lo, hi, t_lo, t_hi = box
        low, high, mask = sum(lo), sum(hi), 0
        for d, (kind, j) in enumerate(classes):
            if kind == "coord":  # s_j >= 1
                off = hi[j - 1] >= 1 and _box_meets(low + (lo[j - 1] < 1), high, t_lo, t_hi)
            else:  # s_j = 0, or total >= 3
                off = lo[j - 1] == 0 and _box_meets(low, high - hi[j - 1], t_lo, t_hi)
                off = off or _box_meets(low, high, max(t_lo, 3), t_hi)
            mask |= (not off) << d
        return mask

    masks = {box: on(box) for box in {every, *where}}
    meets = [masks[box] for box in where]
    proper = [c for c in range(len(classes)) if not masks[every] >> c & 1]
    kept: list[int] = []
    for c in proper:
        above = [d for d in proper if d != c and meets[c] >> d & 1]
        if all(meets[d] >> c & 1 for d in above) and not any(meets[c] >> d & 1 for d in kept):
            kept.append(c)
    facets: list[FacetId] = []
    block_values: dict[FacetId, tuple[int, ...]] = {}
    thresholds: dict[FacetId, Optional[int]] = {}
    for c in kept:
        kind, i = classes[c]
        if kind == "coord":
            members = [FacetId("coord", i, j) for j in range(1, b[i - 1] + 1)]
            free = block_free_counts(params, members[0])
            counts = [math.comb(al + fl, fl) for al, fl in zip(a, free)]
            product = math.prod(counts)
            per_block = tuple(
                math.comb(al + fl, fl + 1) * (product // tl) - 1 if fl else 0
                for al, fl, tl in zip(a, free, counts)
            )
            threshold = 0 if free[i - 1] else max(0, 3 - (sum(a) - a[i - 1]))
        else:
            members = [FacetId("balance", i)]
            per_block = tuple(n - b[i - 1] if l == i else b[i - 1] for l in range(1, k + 1))
            threshold = 1
        for f in members:
            facets.append(f)
            block_values[f], thresholds[f] = per_block, threshold if sum(a) >= 3 else None
    return tuple(facets), MappingProxyType(block_values), MappingProxyType(thresholds)


def block_spans_closed_form(params: SVParams, form: GroupForm) -> bool:
    """The span certificate with one decomposition per block, at each
    block's first position, and one at the last position, beside the
    containment half by box queries (`model._spans_closed_form`)."""
    a, parity = params.a, form.parity
    zero = form.zero and _box_meets(0, sum(a))
    odd = parity is not None and _box_meets(0, sum(a), 3 - parity, 3 - parity)
    if zero or odd or any(_box_meets(0, sum(a) - a[i - 1]) or a[i - 1] >= 2 for i in form.pinned):
        return False
    rows = _basis_rows(params, form)
    firsts = {*params.block_starts[:-1], params.n - 1}
    return all(_decomposition(params, rows[p]) is not None for p in firsts if p < len(rows))


def pair_ray_count(s: AffineSemigroup) -> int:
    """The ray count by its loop over every pair of blocks."""
    a, b = s.params.a, s.params.b
    on_balance = {f.i - 1 for f in s.facets if f.kind == "balance"}
    across = sum(
        b[i] * b[l]
        for i, l in itertools.combinations(range(s.params.k), 2)
        if i in on_balance or l in on_balance or a[i] == a[l] == 1
    )
    return across + sum(bi for ai, bi in zip(a, b) if ai >= 2)


def facet_premise_holds(s: AffineSemigroup) -> bool:
    """The premise of the S_F closed form checked on every facet: the
    generator sum is positive on every block with a free coordinate, or
    the facet has no generators."""
    return all(
        not any(values) or all(v > 0 for v, fl in zip(values, block_free_counts(s.params, f)) if fl)
        for f, values in s.facet_block_values.items()
    )


def facet_sf_scan(s: AffineSemigroup, x: Vec, facets: Sequence[FacetId]) -> list[tuple[int, bool]]:
    """The literal S_F re-check with one membership call per facet at its
    proved multiple N* (see `hoatrung._sf_scan` for the proof)."""
    sums_member = s.membership.sums_member
    params = s.params
    starts, balance, total_a = params.block_starts, params.balance_blocks, sum(params.a)
    x_sums = params.block_sums(x)
    x_balances = [sum(x_sums) - 2 * x_sums[i - 1] for i in balance]
    minima = [min(x[lo:hi]) for lo, hi in zip(starts, starts[1:])]
    out: list[tuple[int, bool]] = []
    for f in facets:
        negative = [(v, m) for v, m in zip(s.facet_block_values[f], minima) if m < 0]
        own_clear = f.kind == "balance" or x[params.position(f.i, f.j)] >= 0
        if not (own_clear and all(v for v, _ in negative)):
            out.append((0, False))
            continue
        step = s.facet_class(f).sums
        step_total = sum(step)
        reach = [0, *(-(m // v) for v, m in negative)]
        reach += [-((xl - al) // cl) for al, xl, cl in zip(params.a, x_sums, step) if cl > 0]
        for i, xb in zip(balance, x_balances):
            cb = step_total - 2 * step[i - 1]
            if cb > 0:
                reach.append(-((xb - total_a) // cb))
        mult = 1 + max(reach)
        out.append((mult, sums_member(tuple(xl + mult * cl for xl, cl in zip(x_sums, step)))))
    return out


def class_sf_scan(s: AffineSemigroup, x: Vec) -> list[tuple[int, int]]:
    """`facet_sf_scan` on every facet, gathered per facet class as
    `hoatrung._sf_scan` answers: the mask of the members with x in S_F,
    and the largest multiple N* among them."""
    out = []
    for c in s.facet_classes:
        scan = facet_sf_scan(s, x, c.facets)
        low = c.mask & -c.mask
        members = sum(low << m for m, (_, member) in enumerate(scan) if member)
        out.append((members, max(mult for mult, _ in scan)))
    return out


def narrowed_s_prime(s: AffineSemigroup) -> SPrimeResult:
    """`hoatrung.s_prime_equals_s` by the route it took before it read the
    normality witness: on every cone that is not normal, the hole search
    narrowed to the closed form of every S_F at odd total, its witness
    re-checked facet by facet (`facet_sf_scan`)."""
    if is_normal(s).is_normal:
        return SPrimeResult("holds")

    def in_every_sf(region: Region) -> None:
        for c in s.facet_classes:
            hoatrung._apply_membership_atom(region, s, c, c.mask, 1)

    x = find_holes(s, narrow=in_every_sf)
    if x is None:
        return SPrimeResult("holds")
    scan = facet_sf_scan(s, x, s.facets)
    if not all(member for _, member in scan):
        raise RuntimeError("closed form disagrees with the literal S_F route")
    return SPrimeResult("fails", x, max(mult for mult, _ in scan))


def facet_gcd(s: AffineSemigroup, f: FacetId) -> int:
    """g_F of one facet by the closed form of `model.facet_list`, read
    facet by facet."""
    a, i = s.params.a, f.i - 1
    if f.kind == "balance":
        return int(sum(a) - a[i] >= 2)
    return 1 if s.params.b[i] >= 2 or s.params.k >= 2 else math.gcd(*range(2, min(a[i], 3) + 1))
