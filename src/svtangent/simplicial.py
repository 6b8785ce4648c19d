"""Simplicial complexes with repeated vertex labels, and exact reduced
homology over the rationals.

Two flavours live here.  LabeledComplex identifies simplices by their label
multiset, which is the right notion for monomial embeddings: two faces with
the same labels give the same coordinate.  AbstractComplex is a plain
abstract complex on opaque sortable vertices, used for the facet-subset
complexes of the Cohen-Macaulay test.  Its reduced homology ranks are the
Betti numbers over Q (and over C, which agree), and one route computes them:
the boundary matrices are first eliminated over F2, one Python int bitmask
per row.  By universal coefficients each Betti number over F2 is at least
the one over Q, so zero homology over F2 in every degree q >= 0 makes those
ranks 0 without an integer rank.  Only when F2 finds homology are the exact
integer ranks of the boundary matrices computed.  The acyclicity test reads
those ranks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .lattice import integer_rank

Simplex = tuple  # sorted tuple of labels, repetitions allowed


def _closure_of_multiset(simplex: Sequence) -> set[Simplex]:
    s = tuple(sorted(simplex))
    out: set[Simplex] = set()
    for r in range(len(s) + 1):
        out.update(itertools.combinations(s, r))
    return out


@dataclass(frozen=True)
class LabeledComplex:
    """Downward-closed family of label multisets, labels may repeat.

    `vertex_labels` lists one label per geometric vertex (so a label of
    multiplicity m appears m times); `simplices` holds the distinct
    simplices as sorted label tuples, always including the empty one.
    """

    vertex_labels: tuple
    simplices: frozenset

    def __post_init__(self):
        if () not in self.simplices:
            raise ValueError("complex must contain the empty simplex")

    @classmethod
    def from_maximal(cls, maximal: Iterable[Sequence], vertex_labels: Optional[Sequence] = None):
        """Build from maximal simplices given as label multisets."""
        faces: set[Simplex] = {()}
        maximal = [tuple(sorted(m)) for m in maximal]
        for m in maximal:
            faces |= _closure_of_multiset(m)
        if vertex_labels is None:
            counts: Counter = Counter()
            for m in maximal:
                c = Counter(m)
                for label, mult in c.items():
                    counts[label] = max(counts[label], mult)
            vertex_labels = tuple(
                sorted(itertools.chain.from_iterable([l] * m for l, m in counts.items()))
            )
        return cls(tuple(vertex_labels), frozenset(faces))

    @classmethod
    def segre_veronese(cls, a: Sequence[int], b: Sequence[int]) -> "LabeledComplex":
        """The complex whose faces pick at most a_i labels from block i.

        Block i carries labels (i, 1), ..., (i, b_i), each on a_i vertices;
        a subset of vertices is a face iff it meets block i in at most a_i
        vertices.  Distinct faces are exactly the products of per-block label
        multisets of size at most a_i.
        """
        if len(a) != len(b):
            raise ValueError("a and b must have equal length")
        if any(x < 1 for x in a) or any(x < 1 for x in b):
            raise ValueError("all entries of a and b must be positive")
        block_choices = []
        for i, (ai, bi) in enumerate(zip(a, b), start=1):
            labels = [(i, j) for j in range(1, bi + 1)]
            choices = []
            for size in range(ai + 1):
                choices.extend(itertools.combinations_with_replacement(labels, size))
            block_choices.append(choices)
        faces = set()
        for combo in itertools.product(*block_choices):
            merged = tuple(sorted(itertools.chain.from_iterable(combo)))
            faces.add(merged)
        vertex_labels = tuple(
            sorted(
                itertools.chain.from_iterable(
                    [(i, j)] * ai
                    for i, (ai, bi) in enumerate(zip(a, b), start=1)
                    for j in range(1, bi + 1)
                )
            )
        )
        return cls(vertex_labels, frozenset(faces))

    def distinct_simplices(self) -> list[Simplex]:
        """Deduplicated simplices in graded lexicographic order."""
        return sorted(self.simplices, key=lambda s: (len(s), s))

    @property
    def num_distinct(self) -> int:
        return len(self.simplices)

    def labels(self) -> list:
        return sorted(set(self.vertex_labels))

    def to_dict(self) -> dict:
        """JSON form: distinct label strings plus simplices as sorted lists
        of label indices (repetitions allowed)."""
        labels = self.labels()
        index = {l: i for i, l in enumerate(labels)}
        return {
            "labels": [str(l) for l in labels],
            "simplices": sorted(
                (sorted(index[l] for l in s) for s in self.simplices),
                key=lambda s: (len(s), s),
            ),
        }

    def exponent_matrix(self, min_dim_one: bool = True):
        """Exponent matrix of the monomial map t -> (prod of labels in s).

        Returns (labels, simplices, matrix) where matrix has one row per
        distinct label and one column per simplex; the entry is the label
        multiplicity in the simplex.  With min_dim_one the columns are
        restricted to simplices of cardinality at least two.
        """
        labels = self.labels()
        index = {l: i for i, l in enumerate(labels)}
        cols = [s for s in self.distinct_simplices() if len(s) >= (2 if min_dim_one else 0)]
        matrix = []
        for l in labels:
            row = []
            for s in cols:
                row.append(sum(1 for x in s if x == l))
            matrix.append(tuple(row))
        return labels, cols, matrix


@dataclass(frozen=True)
class AbstractComplex:
    """Abstract simplicial complex on sortable opaque vertices.

    Faces are stored as sorted vertex tuples and always include the empty
    face when the complex is nonempty; a complex with no faces at all is the
    void complex.
    """

    vertices: tuple
    faces: frozenset

    @classmethod
    def from_faces(cls, faces: Iterable[Sequence]) -> "AbstractComplex":
        closed: set[tuple] = set()
        for f in faces:
            closed |= {tuple(sorted(set(sub))) for r in range(len(set(f)) + 1)
                       for sub in itertools.combinations(sorted(set(f)), r)}
        vertices = tuple(sorted({v for f in closed for v in f}))
        if closed:
            closed.add(())
        return cls(vertices, frozenset(closed))

    @property
    def dim(self) -> int:
        if not self.faces:
            return -2  # void complex
        return max(len(f) for f in self.faces) - 1

    def faces_by_dim(self) -> dict[int, list[tuple]]:
        out: dict[int, list[tuple]] = {}
        for f in self.faces:
            out.setdefault(len(f) - 1, []).append(f)
        for q in out:
            out[q].sort()
        return out

    def euler_characteristic_reduced(self) -> int:
        """Alternating face count including the empty face: sum (-1)^dim."""
        return sum((-1) ** (len(f) + 1) for f in self.faces)

    def reduced_homology_ranks(self) -> list[int]:
        """Ranks over Q of the reduced homology in degrees q = -1, 0, ..., dim.

        The degree -1 entry is nonzero only for the empty complex {()}.  Zero
        homology over F2 in degrees q >= 0 certifies zero ranks there (each
        Betti number over F2 is at least the one over Q); otherwise exact
        integer ranks of the boundary matrices decide, since torsion such as
        that of the real projective plane shows over F2 only.
        """
        if not self.faces:
            return []
        top = self.dim
        if self._acyclic_over_f2():
            return [int(top == -1)] + [0] * (top + 1)
        by_dim = self.faces_by_dim()
        ranks_of_boundary: dict[int, int] = {}
        for q in range(0, top + 1):
            width = len(by_dim.get(q - 1, []))
            rows = []
            for lower in _boundary_indices(by_dim, q):
                col = [0] * width
                for drop, i in enumerate(lower):
                    col[i] += (-1) ** drop
                rows.append(tuple(col))
            # rows indexed by q-faces: rank of the boundary map d_q
            ranks_of_boundary[q] = integer_rank(rows, width) if rows and width else 0
        result = []
        for q in range(-1, top + 1):
            f_q = len(by_dim.get(q, []))
            rank_dq = ranks_of_boundary.get(q, 0)
            rank_dq1 = ranks_of_boundary.get(q + 1, 0)
            result.append(f_q - rank_dq - rank_dq1)
        return result

    def _acyclic_over_f2(self) -> bool:
        """True iff the reduced homology over F2 vanishes in every degree
        q >= 0; stops at the first degree with homology."""
        by_dim = self.faces_by_dim()
        rank_dq = 0
        for q in range(-1, self.dim + 1):
            rank_dq1 = _f2_rank(
                [sum(1 << i for i in lower) for lower in _boundary_indices(by_dim, q + 1)]
            )
            if q >= 0 and len(by_dim[q]) != rank_dq + rank_dq1:
                return False
            rank_dq = rank_dq1
        return True

    def is_acyclic(self) -> bool:
        """True iff all reduced homology over Q vanishes in degrees q >= 0,
        read off `reduced_homology_ranks`.  The void complex and the empty
        complex {()} both count as acyclic under this convention (their
        degree >= 0 homology is trivial).
        """
        return not any(self.reduced_homology_ranks()[1:])


def _boundary_indices(by_dim: dict[int, list[tuple]], q: int) -> list[list[int]]:
    """For each q-face in order, the indices among the sorted (q-1)-faces of
    the faces obtained by dropping its vertex 0, 1, ..., q."""
    index = {f: i for i, f in enumerate(by_dim.get(q - 1, []))}
    return [
        [index[f[:drop] + f[drop + 1:]] for drop in range(len(f))]
        for f in by_dim.get(q, [])
    ]


def _f2_rank(rows: list[int]) -> int:
    """Rank over F2 of rows given as int bitmasks.  Each row is reduced by
    XOR against the pivot row keyed by its highest set bit until it is zero
    or its highest bit is new, and then becomes that bit's pivot.  The key
    is `bit_length()`, a small int read in constant time."""
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
