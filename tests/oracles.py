"""Oracles for the tests.

The geometric facet and ray oracle runs the double description method in
the span of the cone, independent of the model's derived facet list and
incidence table.  The slow routes the model's fast paths replaced are kept
here too, so each fast path can be compared with the route it replaced:
generators by filtering each block's whole box, the facet list with an
HNF rank of every candidate face or with a fraction-free rank test that
stops at rank - 1 (`rank_reaches`), the extreme rays by that rank test
on the facet normals and the annihilator of the group, a region's block-sum tuples by
filtering the whole box product of its block ranges, the first hole by
the plain walk over every block-sum tuple, with no use of block symmetry,
a region's largest total by the plain walk, with no rising floor,
the complex pi_J built on the facets themselves, the facet-subset
complexes as sorted vertex tuples (closure, Euler characteristic, F2
boundary rows and integer ranks indexed by tuple), reduced homology from
exact integer ranks alone, with no F2 certificate, the maximal masks of
a facet subset by an `any` scan, and the facet sums and S_F thresholds
one facet at a time, with one `facet_value` per (facet, odd-sum
generator) pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from svtangent.lattice import (
    Sublattice,
    Vec,
    dot,
    integer_kernel,
    integer_rank,
    primitive,
    vgcd,
    vscale,
    vsub,
)
from svtangent.model import (
    GROUP_BALANCED,
    GROUP_EVEN,
    GROUP_ZERO,
    AffineSemigroup,
    FacetId,
    SVParams,
    facet_value,
    primitive_in_group,
)
from svtangent.hoatrung import FacetProfile
from svtangent.membership import Window
from svtangent.regions import Region
from svtangent.simplicial import AbstractComplex

ORACLE_DIMENSION_CAP = 6


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
        face_rank = integer_rank(on_face, params.n) if on_face else 0
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
    if not s.generators:
        return ()
    units = [tuple(int(p == q) for q in range(n)) for p in range(n)]
    normals = [tuple(facet_value(s.params, f, e) for e in units) for f in s.facets]
    annihilator = list(integer_kernel(s.group.basis, n).basis)
    on_ray: dict[int, bool] = {}
    directions = set()
    for g, mask in zip(s.generators, s.incidence):
        if mask not in on_ray:
            rows = annihilator + [v for t, v in enumerate(normals) if mask >> t & 1]
            on_ray[mask] = rank_reaches(rows, n - 1)
        if on_ray[mask]:
            directions.add(primitive(g))
    return tuple(sorted({primitive_in_group(s, d) for d in directions}))


def per_facet_sums(s: AffineSemigroup) -> dict[FacetId, Vec]:
    """Each facet's generator sum: its generators listed from the incidence
    table and summed coordinatewise (the zero vector if there are none)."""
    sums = {}
    for f in s.facets:
        gens = s.facet_generators(f)
        sums[f] = tuple(map(sum, zip(*gens))) if gens else (0,) * s.n
    return sums


def per_facet_profiles(s: AffineSemigroup) -> dict[FacetId, FacetProfile]:
    """The closed form of every S_F, one facet at a time: the facet sums of
    `per_facet_sums`, and the odd threshold as the least `facet_value` of
    the facet over the odd-sum generators."""
    odd_gens = [g for g in s.generators if sum(g) % 2 == 1]
    profiles = {}
    for f, y0 in per_facet_sums(s).items():
        if not any(y0):
            profiles[f] = FacetProfile(f, "semigroup", False, None)
            continue
        zero_positions = {p for p in range(s.n) if y0[p] == 0}
        expected = {s.params.position(f.i, f.j)} if f.kind == "coord" else set()
        if zero_positions != expected:
            raise RuntimeError(f"facet {f.label()} has unexpected vanishing coordinates")
        odd_threshold = min((facet_value(s.params, f, g) for g in odd_gens), default=None)
        profiles[f] = FacetProfile(f, "closed", sum(y0) % 2 == 1, odd_threshold)
    return profiles


def _sum_tuple_ok(region: Region, s: tuple[int, ...]) -> bool:
    total = sum(s)
    if region.total_parity is not None and total % 2 != region.total_parity:
        return False
    if region.group_tag == GROUP_EVEN and total % 2 != 0:
        return False
    if region.group_tag == GROUP_BALANCED and s[0] != s[1]:
        return False
    for i, lo in region.balance_lo.items():
        if total - 2 * s[i - 1] < lo:
            return False
    for i, hi in region.balance_hi.items():
        if total - 2 * s[i - 1] > hi:
            return False
    if region.sum_predicate is not None and not region.sum_predicate(s):
        return False
    return True


def plain_first_hole(
    s: AffineSemigroup, window: Window, narrow: Optional[Callable[[Region], None]] = None
) -> Optional[Vec]:
    """The first hole of the group of s in [0, M]^n, M the window radius,
    optionally narrowed in place, by the plain walk: every block-sum tuple
    of odd total in the lexicographic order of the box product, each one
    tested for membership."""
    sums_member = s.membership.sums_member
    region = Region(
        params=s.params,
        lo=[0] * s.n,
        hi=[window.radius] * s.n,
        balance_lo={i: 0 for i in s.cone.balance_blocks},
        group_tag=s.group_tag,
        total_parity=1,
        sum_predicate=lambda sums: not sums_member(sums),
    )
    if narrow is not None:
        narrow(region)
    return region.find_point()


def product_filter_sums(region: Region) -> list[tuple[int, ...]]:
    """The region's block-sum tuples, by filtering the whole box product of
    its block ranges, in the product's lexicographic order."""
    ranges = region._block_ranges()
    if ranges is None:
        return []
    if region.group_tag == GROUP_ZERO:
        zero = tuple(0 for _ in ranges)
        if all(0 in r for r in ranges) and _sum_tuple_ok(region, zero):
            if all(region.lo[q] <= 0 <= region.hi[q] for q in range(region.params.n)):
                return [zero]
        return []
    return [s for s in itertools.product(*ranges) if _sum_tuple_ok(region, s)]


def plain_max_total(
    region: Region, point_limit: int = 4
) -> tuple[Optional[int], int, list[Vec]]:
    """`Region.max_total` by the plain walk: every block-sum tuple of the
    region, keeping those at the largest total seen so far."""
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
        for p in region._iter_points_of_sum(s):
            if len(points) == point_limit:
                return best, point_limit + 1, points
            points.append(p)
    return best, len(points), points


def build_pi_j(s: AffineSemigroup, j_facets) -> AbstractComplex:
    """The complex on J whose faces are the subsets of J supporting a common
    nonzero semigroup element, on the facets themselves.

    A nonzero semigroup element vanishes on a facet functional iff every
    generator in one of its decompositions does, so the face test reduces to
    a common generator.
    """
    bits = [(f, 1 << s.facets.index(f)) for f in sorted(j_facets)]
    faces = []
    for mask in s.incidence:
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


def tuple_acyclic_over_f2(faces: Iterable[tuple]) -> bool:
    """Zero reduced homology over F2 in degrees q >= 0, from boundary rows
    indexed through the sorted face tuples."""
    by_dim = faces_by_dim(faces)
    rank_dq = 0
    for q in range(-1, max(by_dim, default=-2) + 1):
        rank_dq1 = f2_rank(
            [sum(1 << i for i in lower) for lower in boundary_indices(by_dim, q + 1)]
        )
        if q >= 0 and len(by_dim[q]) != rank_dq + rank_dq1:
            return False
        rank_dq = rank_dq1
    return True


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
        rank[q] = integer_rank(rows, len(index))
    return [
        len(by_dim[q]) - rank.get(q, 0) - rank.get(q + 1, 0)
        for q in range(-1, top + 1)
    ]


def any_scan_maximal_masks(masks: Iterable[int], jmask: int) -> list[int]:
    """The maximal masks cut down to J, sorted by decreasing bit count with
    a `bin` count and tested for containment with `any`."""
    cut = sorted({m & jmask for m in masks if m & jmask},
                 key=lambda m: -bin(m).count("1"))
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
    for g in s.generators:
        c = s.group.coordinates_of(g)
        if c is None:
            raise RuntimeError("generator outside its own group")
        coords.append(c)
    return coords


def _initial_simplicial_rays(constraints: list[Vec], r: int) -> tuple[list[int], list[Vec]]:
    """Indices of r independent constraints plus the rays of their dual basis."""
    chosen: list[int] = []
    for idx, c in enumerate(constraints):
        if integer_rank([constraints[i] for i in chosen] + [c], r) > len(chosen):
            chosen.append(idx)
        if len(chosen) == r:
            break
    if len(chosen) < r:
        raise RuntimeError("constraint set does not span the dual space")
    rays = []
    for pos in range(r):
        others = [constraints[chosen[t]] for t in range(r) if t != pos]
        if others:
            ker = integer_kernel(others, r)
        else:
            ker = Sublattice.from_generators(
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
                    g for g, c in zip(s.generators, constraints) if c[0] == 0
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
            g for g, c in zip(s.generators, constraints) if dot(ray, c) == 0
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
    rays = set()
    for g in s.generators:
        incident = [f for f in facets if g in f.zero_generators]
        if incident:
            common = set.intersection(*(set(f.zero_generators) for f in incident))
            if integer_rank(sorted(common), s.n) != 1:
                continue
        elif s.rank != 1:
            continue
        p = primitive(g)
        t = 1
        while not s.group.member(vscale(t, p)):
            t += 1
        rays.add(vscale(t, p))
    return tuple(sorted(rays))
