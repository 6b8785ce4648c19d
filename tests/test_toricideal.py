import random

import pytest

from oracles import DenseLattice, hermite_kernel
from svtangent.simplicial import LabeledComplex
from svtangent.toricideal import (
    ComplexFileError,
    IdealContext,
    RelationFormatError,
    check_relation_strings,
    enumerate_binomials,
    format_relation,
    parse_complex_file,
    parse_relation,
    relation_lattice,
    verify_relation,
)

LEFT = LabeledComplex.from_maximal([("1", "2"), ("1", "4"), ("2", "3", "4")])
RIGHT = LabeledComplex.from_maximal([("1", "2"), ("1", "3"), ("2", "3", "3")])
LEFT_RELATIONS = [
    "x_{14}x_{23}-x_{12}x_{34}",
    "x_{234}^2-x_{23}x_{24}x_{34}",
    "x_{14}x_{234}^2-x_{12}x_{24}x_{34}^2",
]
RIGHT_CONSISTENT = [
    "x_{233}^2-x_{23}^2x_{33}",
    "x_{13}x_{23}-x_{12}x_{33}",
]
RIGHT_INCONSISTENT = [
    "x_{233}-x_{23}^2",
    "x_{13}x_{233}-x_{12}x_{23}x_{33}",
    "x_{13}^2x_{233}-x_{12}^2x_{33}^2",
]


class TestRelationLattice:
    def test_left_complex_contains_quadric(self):
        lat = relation_lattice(LEFT)
        r = parse_relation(LEFT, LEFT_RELATIONS[0])
        assert DenseLattice(lat.dim, lat.basis).member(r.vector())

    def test_left_complex_contains_cubic(self):
        lat = relation_lattice(LEFT)
        r = parse_relation(LEFT, LEFT_RELATIONS[1])
        assert DenseLattice(lat.dim, lat.basis).member(r.vector())

    def test_single_edge_has_no_relations(self):
        c = LabeledComplex.from_maximal([("1", "2")])
        assert relation_lattice(c).rank == 0

    def test_kernel_rank_matches_counting(self):
        for c in (LEFT, RIGHT):
            ctx = IdealContext.of(c)
            from svtangent.lattice import integer_rank

            lat = relation_lattice(c)
            assert lat.rank == len(ctx.simplices) - integer_rank(
                ctx.matrix, len(ctx.simplices)
            )


    @pytest.mark.parametrize(
        "c",
        [
            LEFT,
            RIGHT,
            LabeledComplex.from_maximal([("1", "2")]),
            LabeledComplex.segre_veronese([1, 1], [1, 1]),
            LabeledComplex.segre_veronese([2], [2]),
        ],
    )
    def test_matches_the_hermite_kernel(self, c):
        # The echelon kernel against the HNF-transform kernel it replaced:
        # the same canonical basis.
        ctx = IdealContext.of(c)
        assert relation_lattice(c) == hermite_kernel(ctx.matrix, len(ctx.simplices))


class TestEnumerate:
    def test_left_complex_lists_all_three(self):
        found = {r.plus + r.minus for r in enumerate_binomials(LEFT, 6)}
        for text in LEFT_RELATIONS:
            r = parse_relation(LEFT, text)
            key = (
                r.plus + r.minus if r.plus > r.minus else r.minus + r.plus
            )
            assert key in found, text

    def test_every_enumerated_relation_verifies(self):
        for c in (LEFT, RIGHT):
            for r in enumerate_binomials(c, 5):
                assert verify_relation(c, r)
                assert not any(p and m for p, m in zip(r.plus, r.minus))

    def test_single_coordinate_has_no_relations(self):
        c = LabeledComplex.segre_veronese([1, 1], [1, 1])
        assert enumerate_binomials(c, 6) == []

    def test_right_complex_consistent_substitutes(self):
        found = {r.plus + r.minus for r in enumerate_binomials(RIGHT, 6)}
        for text in RIGHT_CONSISTENT:
            r = parse_relation(RIGHT, text)
            key = r.plus + r.minus if r.plus > r.minus else r.minus + r.plus
            assert key in found, text

    def test_veronese_conic(self):
        c = LabeledComplex.segre_veronese([2], [2])
        rels = enumerate_binomials(c, 4)
        ctx = IdealContext.of(c)
        # coordinates t1^2, t1t2, t2^2: the conic relation has middle
        # exponent two on one side
        conic = [
            r
            for r in rels
            if sorted(r.plus) == [0, 0, 2] or sorted(r.minus) == [0, 0, 2]
        ]
        assert conic

    def test_random_evaluation_agreement(self):
        rng = random.Random(7)
        for c in (LEFT, RIGHT):
            ctx = IdealContext.of(c)
            values = {l: rng.randint(1, 5) for l in ctx.labels}
            for r in enumerate_binomials(c, 5):
                def side_value(exps):
                    out = 1
                    for e, simplex in zip(exps, ctx.simplices):
                        mono = 1
                        for label in simplex:
                            mono *= values[label]
                        out *= mono ** e
                    return out
                assert side_value(r.plus) == side_value(r.minus)


class TestVerify:
    def test_quadric_fixture(self):
        assert verify_relation(LEFT, parse_relation(LEFT, LEFT_RELATIONS[0]))

    def test_right_fixture(self):
        assert verify_relation(RIGHT, parse_relation(RIGHT, "x_{13}x_{23}-x_{12}x_{33}"))

    def test_unbalanced_rejected(self):
        bad = parse_relation(LEFT, "x_{14}x_{23}-x_{12}x_{24}")
        assert not verify_relation(LEFT, bad)

    def test_inconsistent_listed_relations_rejected(self):
        verdicts = check_relation_strings(RIGHT, RIGHT_INCONSISTENT)
        assert verdicts == {text: False for text in RIGHT_INCONSISTENT}
        verdicts = check_relation_strings(RIGHT, RIGHT_CONSISTENT)
        assert verdicts == {text: True for text in RIGHT_CONSISTENT}

    def test_unknown_coordinate_raises(self):
        with pytest.raises(RelationFormatError):
            parse_relation(LEFT, "x_{99}-x_{12}")


class TestFilesAndFormatting:
    def test_round_trip_through_format(self):
        for r in enumerate_binomials(LEFT, 4):
            text = format_relation(LEFT, r)
            again = parse_relation(LEFT, text.replace(" ", ""))
            assert {again.plus, again.minus} == {r.plus, r.minus}

    def test_parse_complex_file(self):
        text = "# demo\n1,2\n1,4\n2,3,4\n"
        c = parse_complex_file(text)
        assert c.num_distinct == LEFT.num_distinct

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ComplexFileError) as err:
            parse_complex_file("1,2\n1,,3\n")
        assert "line 2" in str(err.value)

    def test_empty_file_rejected(self):
        with pytest.raises(ComplexFileError):
            parse_complex_file("# nothing\n")
