"""Exact integer linear algebra on row vectors.

Hermite and Smith normal forms, canonical sublattices, membership solving,
the index of a span by one echelon pass, integer kernels and the
fraction-free solve of a system with a unique rational solution.
Everything runs on plain Python ints, so entries can grow without bound
during elimination (they do, for cone computations), and gcds are
`math.gcd`, which is variadic and exact on them.  No floating point
anywhere.

Conventions: a matrix is a sequence of equal-length integer rows; vectors
are tuples.  Sublattices are kept in row-style Hermite normal form, which
makes equality of sublattices plain structural equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Vec = tuple[int, ...]


def vadd(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: int, u: Sequence[int]) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def vgcd(u: Sequence[int]) -> int:
    """The nonnegative gcd of the entries, 0 for a zero or empty vector
    (`math.gcd`, exact on Python ints)."""
    return math.gcd(*u)


def primitive(u: Sequence[int]) -> Vec:
    """Divide out the content; the zero vector is returned unchanged."""
    g = math.gcd(*u)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


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


def hermite_normal_form(
    rows: Sequence[Sequence[int]], ncols: Optional[int] = None
) -> tuple[list[Vec], list[Vec]]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ rows and u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), and zero rows sit at
    the bottom, so the nonzero rows are a canonical basis of the row space
    lattice and the rank is the number of nonzero rows.
    """
    work = [list(r) for r in rows]
    m = len(work)
    if ncols is None:
        if m == 0:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    _hermite(work, ncols, u)
    return [tuple(r) for r in work], [tuple(r) for r in u]


def hermite_basis(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[Vec]:
    """Nonzero rows of the HNF, without tracking the transform (much faster
    than hermite_normal_form when there are many more rows than columns)."""
    work = [list(r) for r in rows]
    if ncols is None:
        if not work:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(work[0])
    _hermite(work, ncols, None)
    return [tuple(r) for r in work if any(r)]


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


def integer_rank(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> int:
    if not rows:
        return 0
    return len(hermite_basis(rows, ncols))


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

    @classmethod
    def from_generators(cls, gens: Iterable[Sequence[int]], dim: int) -> "Sublattice":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != dim:
                raise ValueError("generator dimension mismatch")
        if not gens:
            return cls(dim, ())
        return cls(dim, tuple(hermite_basis(gens, dim)))

    def _pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x) for row in self.basis]

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

    def _pivot_product(self) -> int:
        return math.prod(row[p] for row, p in zip(self.basis, self._pivots()))

    def _echelon(self, members: Iterable[Sequence[int]]) -> Iterator[tuple[int, int]]:
        """Insert `members` one by one into an echelon basis by extended-gcd
        row operations, each unimodular on the two rows it touches, and
        yield the basis's rank and pivot product after each insertion."""
        rows: dict[int, list[int]] = {}  # by pivot column
        product = 1
        for v in members:
            if len(v) != self.dim:
                raise ValueError("vector dimension mismatch")
            v = list(v)
            col = next((c for c, x in enumerate(v) if x), self.dim)
            while col < self.dim:
                row = rows.get(col)
                if row is None:
                    rows[col] = v if v[col] > 0 else [-x for x in v]
                    product *= abs(v[col])
                    break
                a, b = row[col], v[col]
                g, x, y = _xgcd(a, b)
                if g != a:
                    rows[col] = [x * r + y * w for r, w in zip(row, v)]
                    product = product // a * g
                v = [(a // g) * w - (b // g) * r for r, w in zip(row, v)]
                col = next((c for c in range(col + 1, self.dim) if v[c]), self.dim)
            yield len(rows), product

    def spanned_by(self, members: Iterable[Sequence[int]]) -> bool:
        """Whether `members`, vectors that all lie in this lattice, span it.

        The scan (`_echelon`) stops as soon as the echelon basis of the
        members read so far has this basis's rank and pivot product.  That
        is exact: a sublattice of equal rank has the same real span, hence
        the same pivot columns, and the projection onto those columns,
        injective on the span, makes both bases triangular, so the index of
        the sublattice is the ratio of the pivot products.  A member outside
        this lattice is not detected.
        """
        target = (self.rank, self._pivot_product())
        return target == (0, 1) or target in self._echelon(members)

    def index_of(self, members: Iterable[Sequence[int]]) -> Optional[int]:
        """The index in this lattice of the sublattice that `members`, vectors
        that all lie in it, span: the ratio of the pivot products of one
        echelon pass (see `spanned_by`), or None when they span a smaller
        rank.  A member outside this lattice is not detected."""
        rank, product = 0, 1
        for rank, product in self._echelon(members):
            pass
        if rank < self.rank:
            return None
        return product // self._pivot_product()

    def member(self, v: Sequence[int]) -> bool:
        return self.coordinates_of(v) is not None

    def __contains__(self, v: Sequence[int]) -> bool:
        return self.member(v)


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
    fraction-free.

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
        # Only the pivot's nonzero entries move a row, beyond its scaling by
        # p; the rows of these cone systems are mostly sparse.
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


def integer_kernel(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Sublattice:
    """The full lattice {v in Z^ncols : rows @ v = 0}, with a Hermite basis."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if ncols == 0:
        return Sublattice(0, ())
    if not rows:
        return Sublattice.from_generators(
            [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)], ncols
        )
    transpose = [tuple(r[i] for r in rows) for i in range(ncols)]
    h, u = hermite_normal_form(transpose, len(rows))
    kernel_rows = [u[i] for i in range(ncols) if not any(h[i])]
    return Sublattice.from_generators(kernel_rows, ncols)
