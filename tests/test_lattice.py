import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank_reaches
from svtangent.lattice import (
    Sublattice,
    dot,
    hermite_normal_form,
    integer_kernel,
    integer_rank,
    smith_normal_form,
    vsub,
)


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
        lat = Sublattice.from_generators(rows, n)
        h, _ = hermite_normal_form(rows)
        assert all(r in lat for r in h)
        hlat = Sublattice.from_generators([r for r in h if any(r)], n)
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
            lat = Sublattice.from_generators(rows, 2)
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
        lat = Sublattice.from_generators([(2, 0), (0, 2), (1, 1)], 2)
        assert lat.rank == 2
        for v in itertools.product(range(-4, 5), repeat=2):
            assert lat.member(v) == (sum(v) % 2 == 0)

    def test_full_lattice_from_unit_pairs(self):
        gens = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        lat = Sublattice.from_generators(gens, 3)
        assert lat.rank == 3
        assert lat == Sublattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_zero_generators(self):
        lat = Sublattice.from_generators([(0, 0)], 2)
        assert lat.rank == 0
        assert lat.member((0, 0))
        assert not lat.member((1, 0))

    def test_membership_fixture(self):
        lat = Sublattice.from_generators([(2, 0), (0, 2), (1, 1)], 2)
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
        lat = Sublattice.from_generators(gens, 3)
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
