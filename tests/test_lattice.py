import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DenseLattice,
    dot,
    euclid_gcd,
    hermite_kernel,
    hermite_normal_form,
    hermite_rank,
    hermite_sublattice,
    primitive,
    rank_reaches,
    smith_normal_form,
    vgcd,
    vsub,
)
from svtangent.lattice import Sublattice, integer_kernel, integer_rank


def matmul(a, b):
    return [
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    ]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=5
    )
)


@st.composite
def rank_deficient_matrices(draw):
    """Up to three random rows, then up to four integer combinations of
    them, shuffled; possibly no rows at all."""
    n = draw(st.integers(1, 5))
    base = draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=3)
    )
    rows = [tuple(r) for r in base]
    if base:
        for _ in range(draw(st.integers(0, 4))):
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append(tuple(sum(c * r[i] for c, r in zip(cs, base)) for i in range(n)))
    return draw(st.permutations(rows))


@st.composite
def echelon_inputs(draw):
    """A matrix with its column count: possibly no rows or no columns,
    with zero rows, dependent rows and negative entries."""
    n = draw(st.integers(0, 5))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple)
    base = draw(st.lists(row, max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        # An integer combination of the base rows; the zero row if none.
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        rows.append(tuple(sum(c * r[q] for c, r in zip(cs, base)) for q in range(n)))
    return draw(st.permutations(rows)), n


class TestEchelonRoutesMatchHermite:
    """The span, rank and kernel from one echelon pass against the HNF
    routes they replaced (`oracles.hermite_*`)."""

    @given(echelon_inputs())
    @settings(max_examples=400, deadline=None)
    def test_span_rank_and_kernel(self, matrix):
        rows, n = matrix
        assert DenseLattice.from_generators(rows, n) == hermite_sublattice(rows, n)
        assert integer_rank(rows, n) == hermite_rank(rows, n)
        assert integer_kernel(rows, n) == hermite_kernel(rows, n)
        if rows:
            assert integer_rank(rows) == hermite_rank(rows)
            assert integer_kernel(rows) == hermite_kernel(rows)

    def test_empty_inputs(self):
        assert integer_rank([]) == 0
        assert DenseLattice.from_generators([], 3) == Sublattice(3, ())
        assert integer_kernel([], 2) == Sublattice(2, ((1, 0), (0, 1)))
        assert integer_kernel([(), ()]) == Sublattice(0, ())
        with pytest.raises(ValueError, match="ncols required"):
            integer_kernel([])

    @pytest.mark.parametrize("rows", [[[1, 0], [1]], [[1, 0], [1, 2, 3]]])
    def test_ragged_rows_raise_value_error(self, rows):
        # A short row used to raise IndexError deep in the elimination, and
        # a long one was cut to the first row's length.
        span = lambda rows: DenseLattice.from_generators(rows, 2)  # noqa: E731
        for route in (integer_rank, integer_kernel, span):
            with pytest.raises(ValueError):
                route(rows)


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form([(1, 0), (0, 1)])
        assert h == [(1, 0), (0, 1)]
        assert u == [(1, 0), (0, 1)]

    def test_spec_fixture(self):
        h, u = hermite_normal_form([(2, 0), (0, 2), (1, 1)])
        assert [r for r in h if any(r)] == [(1, 1), (0, 2)]

    def test_zero_matrix(self):
        h, _ = hermite_normal_form([(0, 0, 0), (0, 0, 0)])
        assert all(not any(r) for r in h)
        assert integer_rank([(0, 0, 0)]) == 0

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_h_equals_u_times_m(self, rows):
        rows = [tuple(r) for r in rows]
        h, u = hermite_normal_form(rows)
        assert matmul(u, rows) == h
        assert smith_normal_form(u) == [1] * len(u)  # u is unimodular

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_row_space_preserved(self, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows[0])
        lat = DenseLattice.from_generators(rows, n)
        h, _ = hermite_normal_form(rows)
        assert all(r in lat for r in h)
        hlat = DenseLattice.from_generators([r for r in h if any(r)], n)
        assert all(r in hlat for r in rows)
        assert hlat == lat


class TestSmith:
    def test_identity(self):
        assert smith_normal_form([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == [1, 1, 1]

    def test_spec_fixtures(self):
        assert smith_normal_form([(2, 0), (0, 2), (1, 1)]) == [1, 2]
        assert smith_normal_form([(1, 1), (1, -1)]) == [1, 2]

    def test_index_by_coset_enumeration(self):
        # Independent oracle: the index of the lattice spanned by the rows in
        # Z^2 equals the number of distinct cosets among points of a box,
        # where two points are in the same coset iff their difference is a
        # lattice member.
        for rows in [[(2, 0), (0, 2), (1, 1)], [(1, 1), (1, -1)], [(2, 0), (0, 3)]]:
            lat = DenseLattice.from_generators(rows, 2)
            points = list(itertools.product(range(8), repeat=2))
            reps = []
            for p in points:
                if not any(lat.member(vsub(p, r)) for r in reps):
                    reps.append(p)
            diag = smith_normal_form(rows)
            index = 1
            for d in diag:
                index *= d
            assert len(reps) == index

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, rows):
        diag = smith_normal_form(rows)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


class TestSublattice:
    def test_even_sum_lattice(self):
        # Generators of the degree-two semigroup on two coordinates span the
        # even-coordinate-sum lattice of rank 2.
        lat = DenseLattice.from_generators([(2, 0), (0, 2), (1, 1)], 2)
        assert lat.rank == 2
        for v in itertools.product(range(-4, 5), repeat=2):
            assert lat.member(v) == (sum(v) % 2 == 0)

    def test_full_lattice_from_unit_pairs(self):
        gens = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        lat = DenseLattice.from_generators(gens, 3)
        assert lat.rank == 3
        assert lat == DenseLattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_zero_generators(self):
        lat = DenseLattice.from_generators([(0, 0)], 2)
        assert lat.rank == 0
        assert lat.member((0, 0))
        assert not lat.member((1, 0))

    def test_membership_fixture(self):
        lat = DenseLattice.from_generators([(2, 0), (0, 2), (1, 1)], 2)
        assert lat.member((1, 1))
        assert not lat.member((1, 0))
        assert lat.member((0, 0))

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_member_matches_small_coefficient_search(self, gens, v):
        gens = [tuple(g) for g in gens]
        v = tuple(v)
        lat = DenseLattice.from_generators(gens, 3)
        # Exhaustive combination search with coefficients in [-6, 6]; any
        # vector of infinity norm <= 3 in this lattice is reachable that way.
        reachable = False
        for coeffs in itertools.product(range(-6, 7), repeat=len(gens)):
            s = (0, 0, 0)
            for c, g in zip(coeffs, gens):
                s = tuple(a + c * b for a, b in zip(s, g))
            if s == v:
                reachable = True
                break
        if reachable:
            assert lat.member(v)
        if lat.member(v):
            coords = lat.coordinates_of(v)
            rebuilt = (0, 0, 0)
            for c, row in zip(coords, lat.basis):
                rebuilt = tuple(a + c * b for a, b in zip(rebuilt, row))
            assert rebuilt == v


class TestIndexOf:
    """The index of a span from one echelon pass, against the product of
    the Smith invariants of the members' coordinates in the basis."""

    @given(small_matrices, st.sampled_from([None, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_smith_product(self, rows, scale):
        # The members lie in the lattice: integer combinations of its basis,
        # here Z^n or the lattice with its last coordinate scaled.
        n = len(rows[0])
        units = [tuple(int(p == q) for q in range(n)) for p in range(n)]
        if scale is not None:
            units[-1] = tuple(scale * x for x in units[-1])
        lattice = DenseLattice.from_generators(units, n)
        members = [tuple(sum(c * u[q] for c, u in zip(row, units)) for q in range(n))
                   for row in rows]
        diag = smith_normal_form(rows)
        index = lattice.index_of(members)
        if 0 in diag or len(diag) < n:
            assert index is None
            assert not lattice.spanned_by(members)
        else:
            assert index == math.prod(diag)
            assert lattice.spanned_by(members) == (index == 1)

    def test_rays_of_the_even_group(self):
        # 2 e_p in the lattice of even coordinate sum: index 2^(n-1).
        n = 5
        even = DenseLattice.from_generators(
            [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2)], n
        )
        rays = [tuple(2 * (p == q) for q in range(n)) for p in range(n)]
        assert even.index_of(rays) == 2 ** (n - 1)
        assert even.index_of(rays[:-1]) is None

    def test_zero_lattice(self):
        assert DenseLattice(3, ()).index_of([]) == 1
        assert DenseLattice(3, ()).spanned_by([])


def integer_vectors(bits):
    return st.lists(st.integers(-(2**bits), 2**bits), max_size=8)


class TestGcd:
    """`vgcd` and `primitive` on `math.gcd`, against a Python Euclid."""

    @given(
        st.one_of(integer_vectors(8), integer_vectors(100), st.lists(st.just(0), max_size=4)),
        st.integers(-50, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_match_euclid(self, u, c):
        # Scaled by c, so that most vectors have a content above 1.
        u = [c * x for x in u]
        g = euclid_gcd(u)
        assert vgcd(u) == g >= 0
        assert primitive(u) == (tuple(u) if g <= 1 else tuple(x // g for x in u))

    def test_edge_cases(self):
        assert vgcd([]) == 0 and primitive([]) == ()
        assert vgcd([0, 0]) == 0 and primitive([0, 0]) == (0, 0)
        assert vgcd([-4, 6]) == 2 and primitive([-4, 6]) == (-2, 3)
        assert vgcd([-5]) == 5 and primitive([-5]) == (-1,)


class TestKernel:
    def test_single_equation(self):
        ker = integer_kernel([(1, 1)])
        assert ker.rank == 1
        assert ker.basis[0] in ((1, -1), (-1, 1))

    def test_identity_kernel(self):
        ker = integer_kernel([(1, 0), (0, 1)])
        assert ker.rank == 0

    def test_rank_nullity(self):
        for rows in [
            [(1, 2, 3), (4, 5, 6)],
            [(2, 4), (1, 2)],
            [(1, 0, 0, 0)],
            [(3, 3, 3), (1, 1, 1), (0, 0, 0)],
        ]:
            ker = integer_kernel(rows)
            assert ker.rank + integer_rank(rows) == len(rows[0])
            for v in ker.basis:
                assert all(dot(r, v) == 0 for r in rows)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_orthogonality(self, rows):
        rows = [tuple(r) for r in rows]
        ker = integer_kernel(rows)
        for v in ker.basis:
            assert all(dot(r, v) == 0 for r in rows)
        assert ker.rank + integer_rank(rows) == len(rows[0])


class TestRankReaches:
    @given(st.one_of(small_matrices, rank_deficient_matrices()), st.integers(-2, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_hermite_rank(self, rows, target):
        rows = [tuple(r) for r in rows]
        assert rank_reaches(rows, target) == (integer_rank(rows) >= target)
        assert rank_reaches(iter(rows), target) == (integer_rank(rows) >= target)

    def test_nonpositive_target_always_holds(self):
        assert rank_reaches([], 0)
        assert rank_reaches([], -1)
        assert rank_reaches([(0, 0)], 0)
        assert not rank_reaches([], 1)
        assert not rank_reaches([(0, 0)], 1)

    def test_stops_once_the_target_is_reached(self):
        def rows():
            yield (1, 0)
            yield (0, 1)
            raise AssertionError("read past the second independent row")

        assert rank_reaches(rows(), 2)

    def test_large_entries_stay_exact(self):
        big = 10**30
        assert not rank_reaches([(big, big + 1), (3 * big, 3 * big + 3)], 2)
        assert rank_reaches([(big, big + 1), (big + 1, big + 2)], 2)
