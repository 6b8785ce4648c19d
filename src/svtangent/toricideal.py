"""Binomial relations of the monomial embedding restricted to faces of
cardinality at least two.

The coordinates are the distinct simplices of a labeled complex; the
exponent matrix of the monomial map determines a relation lattice (its
integer kernel) and the degree-bounded binomials are enumerated by grouping
monomials with equal image exponent vectors.  The degree bound counts
coordinate factors (the monomial degree in the x-variables); the common
image degree in the underlying variables is reported alongside.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .lattice import Sublattice, Vec, integer_kernel
from .simplicial import LabeledComplex


def _exact_compositions(total: int, parts: int) -> Iterator[Vec]:
    """The vectors of `parts` nonnegative integers with sum `total`, lazily,
    in decreasing lexicographic order, from (total, 0, ..., 0) down.  The
    next vector down: the last nonzero part before the end gives one to the
    part after it, which also takes the end's value."""
    if total < 0 or parts == 0:
        if total == parts == 0:
            yield ()
        return
    v = [total] + [0] * (parts - 1)
    while True:
        yield tuple(v)
        j = parts - 2
        while j >= 0 and not v[j]:
            j -= 1
        if j < 0:
            return
        rest, v[-1] = v[-1], 0
        v[j] -= 1
        v[j + 1] = rest + 1


def _compositions(total: int, parts: int) -> list[Vec]:
    """All vectors of `parts` nonnegative integers with sum at most `total`,
    in lexicographic order: the compositions of `total` into parts + 1,
    the last one taking the slack, reversed."""
    out = [v[:parts] for v in _exact_compositions(total, parts + 1)]
    out.reverse()
    return out


class RelationFormatError(ValueError):
    """An expression references an unknown coordinate or cannot be parsed."""


class ComplexFileError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class BinomialRelation:
    """A relation plus - minus between two monomials in the coordinates.

    `plus` and `minus` are exponent tuples over the coordinate list (the
    complex's distinct simplices of cardinality at least two); supports are
    disjoint, the difference lies in the relation lattice, and `plus` is the
    lexicographically larger side.  `degree` is the larger monomial degree
    of the two sides; `image_degree` the common total degree of the image
    monomial in the underlying variables.
    """

    plus: Vec
    minus: Vec
    degree: int
    image_degree: int

    def vector(self) -> Vec:
        return tuple(p - m for p, m in zip(self.plus, self.minus))


@dataclass(frozen=True)
class IdealContext:
    complex: LabeledComplex
    labels: tuple
    simplices: tuple
    matrix: tuple  # rows indexed by labels, columns by simplices

    @classmethod
    def of(cls, c: LabeledComplex) -> "IdealContext":
        labels, simplices, matrix = c.exponent_matrix(min_dim_one=True)
        return cls(c, tuple(labels), tuple(simplices), tuple(matrix))

    def image_exponents(self, exponents: Sequence[int]) -> Vec:
        return tuple(
            sum(row[j] * exponents[j] for j in range(len(exponents)))
            for row in self.matrix
        )

    def coordinate_name(self, simplex: tuple) -> str:
        single_block = all(
            isinstance(l, tuple) and len(l) == 2 and l[0] == 1 for l in self.labels
        )
        tokens = [_label_token(l, single_block) for l in simplex]
        if all(len(t) == 1 for t in tokens):
            return "x_{" + "".join(tokens) + "}"
        return "x_{" + ",".join(tokens) + "}"


def _label_token(label, single_block: bool = False) -> str:
    if isinstance(label, tuple) and len(label) == 2:
        return str(label[1]) if single_block else f"{label[0]}{label[1]}"
    return str(label)


def relation_lattice(c: LabeledComplex) -> Sublattice:
    """Integer kernel of the exponent matrix on the cardinality >= 2 part."""
    ctx = IdealContext.of(c)
    if not ctx.simplices:
        return Sublattice(0, ())
    return integer_kernel(ctx.matrix, len(ctx.simplices))


def enumerate_binomials(c: LabeledComplex, max_degree: int) -> list[BinomialRelation]:
    """All binomial relations with both monomial degrees at most max_degree.

    Monomials of bounded degree are grouped by their image exponent vector;
    every pair in a group gives a kernel vector, and conversely both sides
    of any kernel vector within the bound appear in the same group, so the
    enumeration is complete up to the bound.  Relations are deduplicated up
    to sign with the lexicographically larger monomial on the plus side.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    ctx = IdealContext.of(c)
    ncoords = len(ctx.simplices)
    if ncoords == 0:
        return []
    groups: dict[Vec, list[Vec]] = {}
    for mono in _compositions(max_degree, ncoords):
        groups.setdefault(ctx.image_exponents(mono), []).append(mono)
    out = set()
    for image, monos in groups.items():
        if len(monos) < 2:
            continue
        for p, q in _pairs(monos):
            diff = tuple(a - b for a, b in zip(p, q))
            plus = tuple(max(d, 0) for d in diff)
            minus = tuple(max(-d, 0) for d in diff)
            if plus == minus:
                continue
            if plus < minus:
                plus, minus = minus, plus
            out.add((plus, minus))
    relations = []
    for plus, minus in out:
        image = ctx.image_exponents(plus)
        relations.append(
            BinomialRelation(
                plus,
                minus,
                max(sum(plus), sum(minus)),
                sum(image),
            )
        )
    relations.sort(key=lambda r: (r.degree, r.plus, r.minus))
    return relations


def _pairs(items: list) -> Iterable[tuple]:
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            yield items[i], items[j]


def verify_relation(c: LabeledComplex, r: BinomialRelation) -> bool:
    """True iff both sides have the same image exponents under the map."""
    ctx = IdealContext.of(c)
    if len(r.plus) != len(ctx.simplices) or len(r.minus) != len(ctx.simplices):
        raise RelationFormatError("exponent length does not match the coordinates")
    return ctx.image_exponents(r.plus) == ctx.image_exponents(r.minus)


_TERM_RE = re.compile(r"x_\{([^}]*)\}(?:\^(\d+))?")


def parse_relation(c: LabeledComplex, text: str) -> BinomialRelation:
    """Parse a binomial written in subscript notation, e.g.
    `x_{14}x_{23}-x_{12}x_{34}` or `x_{234}^2-x_{23}x_{24}x_{34}`."""
    ctx = IdealContext.of(c)
    sides = text.replace(" ", "").split("-")
    if len(sides) != 2:
        raise RelationFormatError(f"expected one minus sign in {text!r}")
    index = {s: i for i, s in enumerate(ctx.simplices)}

    def side_exponents(side: str) -> Vec:
        exps = [0] * len(ctx.simplices)
        consumed = 0
        for m in _TERM_RE.finditer(side):
            consumed += len(m.group(0))
            sub = m.group(1)
            tokens = sub.split(",") if "," in sub else list(sub)
            simplex = tuple(sorted(tokens))
            if simplex not in index:
                raise RelationFormatError(f"unknown coordinate x_{{{sub}}}")
            exps[index[simplex]] += int(m.group(2) or 1)
        if consumed != len(side):
            raise RelationFormatError(f"cannot parse monomial {side!r}")
        return tuple(exps)

    plus = side_exponents(sides[0])
    minus = side_exponents(sides[1])
    image = ctx.image_exponents(plus)
    return BinomialRelation(plus, minus, max(sum(plus), sum(minus)), sum(image))


def check_relation_strings(c: LabeledComplex, expressions: Sequence[str]) -> dict[str, bool]:
    """Parse and verify each expression; the value records whether the two
    sides really have equal image exponents."""
    out = {}
    for text in expressions:
        out[text] = verify_relation(c, parse_relation(c, text))
    return out


def format_relation(c: LabeledComplex, r: BinomialRelation) -> str:
    ctx = IdealContext.of(c)

    def side(exps: Vec) -> str:
        parts = []
        for e, simplex in zip(exps, ctx.simplices):
            if e == 0:
                continue
            name = ctx.coordinate_name(simplex)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "".join(parts) if parts else "1"

    return f"{side(r.plus)} - {side(r.minus)}"


def parse_complex_file(text: str) -> LabeledComplex:
    """One maximal simplex per line as comma-separated labels; blank lines
    and lines starting with # are skipped."""
    maximal = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = [t.strip() for t in line.split(",")]
        if any(not t for t in labels):
            raise ComplexFileError("empty label", lineno)
        if any("{" in t or "}" in t or "^" in t for t in labels):
            raise ComplexFileError(f"invalid label in {line!r}", lineno)
        maximal.append(tuple(labels))
    if not maximal:
        raise ComplexFileError("no simplices found", 1)
    return LabeledComplex.from_maximal(maximal)
