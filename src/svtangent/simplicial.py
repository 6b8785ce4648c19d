"""Simplicial complexes with repeated vertex labels, and exact reduced
homology over the rationals.

Two flavours live here.  LabeledComplex identifies simplices by their label
multiset, which is the right notion for monomial embeddings: two faces with
the same labels give the same coordinate.  AbstractComplex is a plain
abstract complex on opaque sortable vertices, used for the facet-subset
complexes of the Cohen-Macaulay test.  It keeps each face as an int mask
over its vertices, one set of masks per face size, and reads everything off
those levels: the reduced Euler characteristic from their sizes, and each
boundary row from the faces a mask drops to.  Its reduced homology ranks
are the Betti numbers over Q (and over C, which agree), and one route
computes them: the boundary matrices are first eliminated over F2, one
Python int bitmask per row, to the Betti numbers over F2.  By universal
coefficients 2-torsion raises them in two neighbouring degrees, so where
they are nonzero only in degrees of one parity they are the ranks over Q,
with no integer rank.  Only otherwise are the exact integer ranks of the
boundary matrices computed.  The acyclicity test reads those ranks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Set as AbstractSet
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

    A face is an int mask over `vertices`, bit i standing for vertices[i];
    the vertices are sorted and each lies in some face.  `levels[k]` holds
    the faces of k vertices, so a nonempty complex has the empty face 0 as
    its level 0, and the void complex, with no faces at all, has no levels.
    The form is canonical: two complexes with the same faces are equal.
    Vertex tuples appear only in the input of `from_faces` and in the
    `faces` view.
    """

    vertices: tuple
    levels: tuple  # of frozenset[int], one per face size

    @classmethod
    def from_faces(cls, faces: Iterable[Sequence]) -> "AbstractComplex":
        """The downward closure of faces given as vertex sequences."""
        faces = [set(f) for f in faces]
        vertices = tuple(sorted(set().union(*faces)))
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        return cls._closure(vertices, [sum(bit[v] for v in f) for f in faces])

    @classmethod
    def from_maximal_masks(cls, maximal: Sequence[int]) -> "AbstractComplex":
        """The complex whose faces are the subsets of the masks, with vertex
        t for bit t.  No masks give the void complex.
        """
        union = 0
        for m in maximal:
            union |= m
        positions = [t for t in range(union.bit_length()) if union >> t & 1]
        if union + 1 != 1 << len(positions):
            # Renumber the vertices 0, 1, ... in order of their bits.
            maximal = [
                sum(1 << i for i, t in enumerate(positions) if m >> t & 1)
                for m in maximal
            ]
        return cls._closure(tuple(positions), maximal)

    @classmethod
    def _closure(cls, vertices: tuple, masks: Sequence[int]) -> "AbstractComplex":
        """The faces are built one size at a time downward, each distinct
        face once."""
        by_size: dict[int, set[int]] = {}
        for m in masks:
            by_size.setdefault(m.bit_count(), set()).add(m)
        levels: list[frozenset[int]] = []
        level: set[int] = set()
        for size in range(max(by_size, default=-1), -1, -1):
            level |= by_size.get(size, set())
            below: set[int] = set()
            for face in level:
                rest = face
                while rest:
                    low = rest & -rest
                    below.add(face ^ low)
                    rest ^= low
            levels.append(frozenset(level))
            level = below
        return cls(vertices, tuple(reversed(levels)))

    @property
    def dim(self) -> int:
        return len(self.levels) - 2  # -2 for the void complex

    @property
    def faces(self) -> "_FaceView":
        """The faces as sorted vertex tuples, the empty face included."""
        return _FaceView(self)

    def euler_characteristic_reduced(self) -> int:
        """Alternating face count including the empty face, sum (-1)^dim,
        read off the level sizes."""
        return sum((-1) ** (k + 1) * len(level) for k, level in enumerate(self.levels))

    def reduced_homology_ranks(self) -> list[int]:
        """Ranks over Q of the reduced homology in degrees q = -1, 0, ..., dim.

        The degree -1 entry is nonzero only for the empty complex {()}.  The
        ranks over F2 (`_f2_ranks`) come first.  By universal coefficients,
        beta_q(F2) = beta_q(Q) + t_q + t_(q - 1), t_q the number of 2-primary
        cyclic summands of the torsion of H_q over Z, so a torsion summand
        raises two neighbouring degrees over F2.  Where the F2 ranks are
        nonzero only in degrees of one parity, every t_q is 0 and they are
        the ranks over Q; otherwise exact integer ranks of the boundary
        matrices decide, as for the real projective plane, whose 2-torsion
        shows over F2 in degrees 1 and 2.
        """
        ranks = self._f2_ranks()
        if len({q % 2 for q, r in enumerate(ranks) if r}) <= 1:
            return ranks
        return self._rational_ranks()

    def _rational_ranks(self) -> list[int]:
        """The ranks from the exact integer rank of every boundary matrix.
        The row of a face has the sign (-1)^i at the face that drops its
        i-th vertex, i counted from 0 in bit order."""
        levels = self.levels
        rank = [0] * (len(levels) + 1)  # rank[k]: boundary out of level k
        for k in range(1, len(levels)):
            index = {f: i for i, f in enumerate(levels[k - 1])}
            rows = []
            for face in levels[k]:
                row = [0] * len(index)
                rest = face
                while rest:
                    low = rest & -rest
                    row[index[face ^ low]] = (-1) ** (face & (low - 1)).bit_count()
                    rest ^= low
                rows.append(row)
            rank[k] = integer_rank(rows, len(index))
        return [len(level) - rank[k] - rank[k + 1] for k, level in enumerate(levels)]

    def _f2_ranks(self) -> list[int]:
        """Ranks over F2 of the reduced homology in degrees q = -1, 0, ...,
        dim: each level's size less the ranks of the boundary out of it and
        into it.

        The boundary of each level is eliminated from the top level down,
        one int bitmask row per face, bit i for the i-th face of the level
        below, each row reduced by XOR against the pivot row keyed by its
        highest set bit.  A face that is the pivot of a reduced row of the
        level above is skipped: that row is a cycle whose highest face is
        this one, so the face's boundary is a sum of the boundaries of
        faces eliminated before it, and its row would reduce to zero (the
        clearing of persistent homology).  The pivots of a level are then
        the rank of its boundary.
        """
        levels = self.levels
        rank = [0] * (len(levels) + 1)  # rank[k]: boundary out of level k
        cleared: set[int] = set()
        for k in range(len(levels) - 1, 0, -1):
            below = list(levels[k - 1])
            bit = {f: 1 << i for i, f in enumerate(below)}
            pivots: dict[int, int] = {}
            for face in levels[k]:
                if face in cleared:
                    continue
                row = 0
                rest = face
                while rest:
                    low = rest & -rest
                    row |= bit[face ^ low]
                    rest ^= low
                while row:
                    top = row.bit_length()
                    pivot = pivots.get(top)
                    if pivot is None:
                        pivots[top] = row
                        break
                    row ^= pivot
            rank[k] = len(pivots)
            cleared = {below[top - 1] for top in pivots}
        return [len(level) - rank[k] - rank[k + 1] for k, level in enumerate(levels)]

    def is_acyclic(self) -> bool:
        """True iff all reduced homology over Q vanishes in degrees q >= 0,
        read off `reduced_homology_ranks`.  The void complex and the empty
        complex {()} both count as acyclic under this convention (their
        degree >= 0 homology is trivial).
        """
        return not any(self.reduced_homology_ranks()[1:])


class _FaceView(AbstractSet):
    """The faces of a complex as sorted vertex tuples, built as they are
    read; the size comes from the levels."""

    __slots__ = ("_complex",)

    def __init__(self, complex_: AbstractComplex) -> None:
        self._complex = complex_

    def __len__(self) -> int:
        return sum(map(len, self._complex.levels))

    def __iter__(self):
        vertices = self._complex.vertices
        for level in self._complex.levels:
            for face in level:
                yield tuple(v for i, v in enumerate(vertices) if face >> i & 1)

    def __contains__(self, face) -> bool:
        vertices, levels = self._complex.vertices, self._complex.levels
        if not isinstance(face, tuple) or len(face) >= len(levels):
            return False
        try:
            positions = [vertices.index(v) for v in face]
        except ValueError:
            return False
        if any(p >= q for p, q in zip(positions, positions[1:])):
            return False
        return sum(1 << p for p in positions) in levels[len(face)]
