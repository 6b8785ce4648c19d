import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import f2_rank, integer_homology_ranks, tuple_f2_ranks
from svtangent import simplicial
from svtangent.simplicial import AbstractComplex, LabeledComplex


# The 6-vertex triangulated real projective plane.
RP2 = [[int(v) for v in t] for t in "123 134 145 156 162 235 346 452 563 624".split()]


def multiset_count(a_i, b_i):
    # number of multisets of size <= a_i from b_i labels
    return sum(math.comb(b_i + s - 1, s) for s in range(a_i + 1))


class TestLabeledComplex:
    def test_single_label_two_vertices(self):
        c = LabeledComplex.segre_veronese([2], [1])
        assert c.distinct_simplices() == [(), ((1, 1),), ((1, 1), (1, 1))]

    def test_two_blocks_unit(self):
        c = LabeledComplex.segre_veronese([1, 1], [1, 1])
        assert c.distinct_simplices() == [(), ((1, 1),), ((2, 1),), ((1, 1), (2, 1))]

    def test_single_vertex(self):
        c = LabeledComplex.segre_veronese([1], [1])
        assert c.num_distinct == 2

    def test_distinct_count_formula(self):
        for a, b in itertools.product(
            itertools.product(range(1, 4), repeat=2), itertools.product(range(1, 4), repeat=2)
        ):
            c = LabeledComplex.segre_veronese(list(a), list(b))
            expected = 1
            for ai, bi in zip(a, b):
                expected *= multiset_count(ai, bi)
            assert c.num_distinct == expected

    def test_fixture_complex_counts(self):
        # Complex with maximal cells {1,2},{1,4},{2,3,4}: eleven distinct
        # simplices; merging the labels 3 and 4 drops the count to nine.
        left = LabeledComplex.from_maximal([("1", "2"), ("1", "4"), ("2", "3", "4")])
        assert left.num_distinct == 11
        right = LabeledComplex.from_maximal([("1", "2"), ("1", "3"), ("2", "3", "3")])
        assert right.num_distinct == 9

    def test_exponent_matrix_merged_complex(self):
        right = LabeledComplex.from_maximal([("1", "2"), ("1", "3"), ("2", "3", "3")])
        labels, cols, matrix = right.exponent_matrix(min_dim_one=True)
        assert labels == ["1", "2", "3"]
        col_vectors = {tuple(matrix[r][c] for r in range(3)) for c in range(len(cols))}
        assert col_vectors == {(1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2), (0, 1, 2)}

    def test_exponent_matrix_single_edge(self):
        c = LabeledComplex.from_maximal([("1", "2")])
        labels, cols, matrix = c.exponent_matrix()
        assert cols == [("1", "2")]
        assert [row[0] for row in matrix] == [1, 1]

    def test_exponent_matrix_degree_two_point(self):
        c = LabeledComplex.segre_veronese([2], [1])
        labels, cols, matrix = c.exponent_matrix()
        assert len(cols) == 1
        assert matrix[0][0] == 2

    def test_downward_closure_property(self):
        c = LabeledComplex.segre_veronese([2, 1], [2, 2])
        for s in c.simplices:
            for r in range(len(s)):
                for sub in itertools.combinations(s, r):
                    assert tuple(sorted(sub)) in c.simplices

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LabeledComplex.segre_veronese([0], [1])
        with pytest.raises(ValueError):
            LabeledComplex.segre_veronese([1], [1, 2])


class TestHomology:
    def test_two_isolated_vertices(self):
        c = AbstractComplex.from_faces([("a",), ("b",)])
        assert c.reduced_homology_ranks() == [0, 1]
        assert not c.is_acyclic()

    def test_full_simplex_acyclic(self):
        for n in range(1, 5):
            c = AbstractComplex.from_faces([tuple(range(n))])
            assert c.is_acyclic()

    def test_triangle_boundary(self):
        c = AbstractComplex.from_faces([(0, 1), (0, 2), (1, 2)])
        assert c.reduced_homology_ranks() == [0, 0, 1]
        assert not c.is_acyclic()

    def test_sphere_homology(self):
        # boundary of the d-simplex is a (d-1)-sphere
        for d in range(2, 5):
            verts = tuple(range(d + 1))
            facets = list(itertools.combinations(verts, d))
            c = AbstractComplex.from_faces(facets)
            ranks = c.reduced_homology_ranks()
            assert ranks[-1] == 1
            assert all(r == 0 for r in ranks[:-1])

    def test_simplex_minus_one_facet_acyclic(self):
        verts = (0, 1, 2, 3)
        facets = list(itertools.combinations(verts, 3))[:-1]
        c = AbstractComplex.from_faces(facets)
        assert c.is_acyclic()

    def test_empty_and_void(self):
        void = AbstractComplex((), ())
        assert void == AbstractComplex.from_faces([])
        assert void.reduced_homology_ranks() == []
        assert void.is_acyclic()
        empty = AbstractComplex((), (frozenset({0}),))
        assert empty == AbstractComplex.from_faces([()])
        assert empty.reduced_homology_ranks() == [1]
        assert empty.is_acyclic()

    def test_path_graph_acyclic(self):
        c = AbstractComplex.from_faces([(0, 1), (1, 2)])
        assert c.is_acyclic()

    @given(
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=8
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_f2_first_matches_rational_homology(self, maximal):
        c = AbstractComplex.from_faces([tuple(set(m)) for m in maximal])
        assert c.is_acyclic() == (not any(c.reduced_homology_ranks()[1:]))

    @given(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=8))
    @example([])  # the void complex: no ranks
    @example([[]])  # {()}: rank 1 in degree -1
    @settings(max_examples=300, deadline=None)
    def test_ranks_match_integer_homology(self, maximal):
        c = AbstractComplex.from_faces([tuple(set(m)) for m in maximal])
        assert c.reduced_homology_ranks() == integer_homology_ranks(c.faces)

    @given(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=8))
    @example(RP2)  # 2-torsion: F2 ranks in degrees 1 and 2, so the fallback
    @example([])
    @example([[]])
    @settings(max_examples=300, deadline=None)
    def test_f2_first_ranks_match_rational_ranks(self, maximal):
        c = AbstractComplex.from_faces([tuple(set(m)) for m in maximal])
        assert c.reduced_homology_ranks() == c._rational_ranks()
        assert c._f2_ranks() == tuple_f2_ranks(c.faces)

    @given(st.lists(st.integers(0, 255), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_f2_rank_matches_span_size(self, rows):
        # The F2 span of r independent rows has 2^r elements.
        span = {0}
        for row in rows:
            span |= {v ^ row for v in span}
        assert 1 << f2_rank(rows) == len(span)

    def test_f2_certificate_skips_rational_homology(self, monkeypatch):
        # Contractible complexes: a cone, a path and a triangulated disk
        # (triangle subdivided at its centre 3).
        def refuse(*_):
            raise AssertionError("integer rank computed")

        monkeypatch.setattr(simplicial, "integer_rank", refuse)
        for maximal in ([(0, 1, 2), (0, 2, 3), (0, 3, 4)],
                        [(0, 1), (1, 2), (2, 3)],
                        [(0, 1, 3), (1, 2, 3), (0, 2, 3)]):
            assert AbstractComplex.from_faces(maximal).is_acyclic(), maximal
        # Spheres: homology over F2 in one degree only, so these are the
        # ranks over Q.  The boundary of the 11-simplex is the pi_J of block
        # 2's coordinate facets on (1,2),(1,12).
        for d in (2, 3, 11):
            sphere = AbstractComplex.from_faces(itertools.combinations(range(d + 1), d))
            assert sphere.reduced_homology_ranks() == [0] * d + [1]

    def test_projective_plane_acyclic_through_rational_fallback(self, monkeypatch):
        # The 6-vertex RP^2: over F2 it has homology in degrees 1 and 2, and
        # its reduced Euler characteristic is 0, but over Q it is acyclic.
        rp2 = AbstractComplex.from_faces(RP2)
        assert rp2.euler_characteristic_reduced() == 0
        assert rp2._f2_ranks() == [0, 0, 1, 1]
        assert rp2.reduced_homology_ranks() == [0, 0, 0, 0]
        calls = []
        rank = simplicial.integer_rank

        def counted(rows, width):
            calls.append(width)
            return rank(rows, width)

        monkeypatch.setattr(simplicial, "integer_rank", counted)
        assert rp2.is_acyclic()
        assert calls

    @pytest.mark.parametrize("d", [2, 3])
    def test_spheres_not_acyclic(self, d):
        # The circle and the 2-sphere as boundaries of the 2- and 3-simplex.
        sphere = AbstractComplex.from_faces(itertools.combinations(range(d + 1), d))
        assert sphere._f2_ranks() == [0] * d + [1]
        assert not sphere.is_acyclic()

    @given(
        st.lists(
            st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=6
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_euler_characteristic_matches_homology(self, maximal):
        c = AbstractComplex.from_faces([tuple(set(m)) for m in maximal])
        ranks = c.reduced_homology_ranks()
        alternating = sum((-1) ** (q + 2) * r for q, r in enumerate(ranks, start=-1))
        assert alternating == c.euler_characteristic_reduced()
