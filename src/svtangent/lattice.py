"""Exact integer linear algebra on row vectors.

One integer elimination, the echelon insertion `_echelon_rows`, answers
every lattice question of the package: the canonical Hermite basis of a
span (the echelon rows reduced above their pivots), the rank of a matrix
and the integer kernel.  The index of the extreme rays' span in the
group needs no elimination: the rays are the rows of a graph's incidence
matrix (`membership.pair_span_pivots`).  Everything runs on plain Python
ints, so entries can grow without bound during elimination (they do, for
cone computations).  No floating point anywhere.  The Hermite and Smith
normal forms with their transforms, and membership and index in a
lattice given by a dense basis, live in the test suite's oracles, as
references.

Conventions: a matrix is a sequence of equal-length integer rows; vectors
are tuples.  Sublattices are kept in row-style Hermite normal form, which
makes equality of sublattices plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

Vec = tuple[int, ...]


def vscale(c: int, u: Sequence[int]) -> Vec:
    return tuple(c * a for a in u)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x * a + y * b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^dim held as a canonical Hermite basis.

    Two equal sublattices always have identical `basis` tuples, so dataclass
    equality is lattice equality.
    """

    dim: int
    basis: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def _echelon_rows(rows: Iterable[Sequence[int]], ncols: int) -> dict[int, Sequence[int]]:
    """The echelon basis of the rows' span, keyed by pivot column: the
    rows, vectors of length `ncols`, inserted one by one by extended-gcd
    row operations, each unimodular on the two rows it touches.  Pivots
    are positive.  Rows are replaced, never mutated, so a row that takes a
    new pivot as it is, with a positive entry there, is kept without a
    copy."""
    basis: dict[int, Sequence[int]] = {}
    for v in rows:
        if len(v) != ncols:
            raise ValueError("vector dimension mismatch")
        col = next((c for c, x in enumerate(v) if x), ncols)
        while col < ncols:
            row = basis.get(col)
            if row is None:
                basis[col] = v if v[col] > 0 else [-x for x in v]
                break
            a, b = row[col], v[col]
            g, x, y = _xgcd(a, b)
            if g != a:
                basis[col] = [x * r + y * w for r, w in zip(row, v)]
            v = [(a // g) * w - (b // g) * r for r, w in zip(row, v)]
            col = next((c for c in range(col + 1, ncols) if v[c]), ncols)
    return basis


def _hermite_rows(rows: Mapping[int, Sequence[int]]) -> tuple[Vec, ...]:
    """The row-style Hermite basis of the lattice that an echelon basis with
    positive pivots spans (rows keyed by pivot column): the rows in pivot
    order, each entry above a pivot reduced into [0, pivot) by subtracting
    a multiple of the pivot's row (Cohen, *A Course in Computational
    Algebraic Number Theory*, ch. 2).  The pivot's row is zero before its
    pivot, so no reduction moves an entry reduced before it."""
    order = sorted(rows)
    basis = [rows[c] for c in order]  # rows are replaced, never mutated
    for j, c in enumerate(order):
        pivot_row = basis[j]
        p = pivot_row[c]
        for i in range(j):
            q = basis[i][c] // p  # floor division reduces into [0, p)
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], pivot_row)]
    return tuple(map(tuple, basis))


def integer_rank(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> int:
    """The rank of a matrix: the number of rows of one echelon pass.  Rows
    of a length other than `ncols` (the first row's by default) raise
    ValueError."""
    if not rows:
        return 0
    return len(_echelon_rows(rows, len(rows[0]) if ncols is None else ncols))


def integer_kernel(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Sublattice:
    """The full lattice {v in Z^ncols : rows @ v = 0}, with its Hermite basis.

    One echelon pass over the columns of the matrix, each extended by a unit
    vector: (column j, e_j) for j < ncols, which span {(rows @ u, u)}.  The
    echelon rows whose pivot lies in the unit part vanish on the matrix
    part, and they are a basis of the members that do: in a combination of
    the echelon rows that vanishes there, the rows with a pivot in the
    matrix part take coefficient 0, by triangularity.  Their unit parts are
    therefore a basis of the kernel (Cohen, ch. 2).
    """
    rows = [tuple(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    m = len(rows)
    columns = (
        tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(ncols))
        for j in range(ncols)
    )
    basis = _echelon_rows(columns, m + ncols)
    return Sublattice(
        ncols, _hermite_rows({c - m: row[m:] for c, row in basis.items() if c >= m})
    )
