"""The kernels on the fixed path of every `classify` call against the routes
they replaced, kept in `oracles`: the facet-class table read off the block
types against the box queries over every pair of class types
(`box_facet_list`), the span certificate on the named rows' block sums
against the sparse rows of the whole basis (`sparse_spans_closed_form`),
the witness scan that reads x once against the one that built its
candidate lists per class key (`keyed_sf_scan`), and the odd shapes filled
with an early stop against the fill over every block
(`pinned_first_odd_shape`).  They run on the acceptance grid sweep(3, 3, 3)
with (1,1,1,1),(1,1,1,1), on every `spot` and `segre` workload instance,
and on block types with multiplicities up to 4."""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    BALANCED,
    EVEN,
    FULL,
    ZERO,
    box_facet_list,
    keyed_sf_scan,
    pinned_first_odd_shape,
    sparse_spans_closed_form,
)
from svtangent import hoatrung
from svtangent.classify import classify, normalized_grid
from svtangent.model import SVParams, _spans_closed_form, build_semigroup_from_params, facet_list

WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text()
)
CASES = list(dict.fromkeys(
    normalized_grid(3, 3, 3)
    + [SVParams.of([1] * 4, [1] * 4)]
    + [SVParams.of(i["a"], i["b"]) for name in ("spot", "segre") for i in WORKLOADS[name]]
))
# The routes whose witnesses the literal S_F re-check scans.
WITNESS_ROUTES = {"s_prime_equals_s", "_gj_recheck", "gorenstein_witness", "stanley_gorenstein"}

BLOCK_TYPES = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[:2],
).map(
    lambda types: SVParams.of(
        [a for a, _, m in types for _ in range(m)], [b for _, b, m in types for _ in range(m)]
    )
)


def label(p: SVParams) -> str:
    return f"{p.a}{p.b}".replace(" ", "")


def check_build(p: SVParams) -> None:
    """The facet-class table, and the span certificate under every closed
    form that fits the blocks, the instance's own and the wrong ones."""
    assert facet_list(p) == box_facet_list(p), p
    for form in [FULL, EVEN, ZERO] + ([BALANCED] if p.k >= 2 else []):
        assert _spans_closed_form(p, form) == sparse_spans_closed_form(p, form), (p, form)


def check_odd_shapes(s, tuples) -> None:
    for t in tuples:
        assert s.membership._odd_shape(t) == pinned_first_odd_shape(s, t), (s.params, t)


def group_points(s, rng: random.Random, count: int = 12) -> list[tuple[int, ...]]:
    """Group points with coordinates in [-2, 3], each block drawn afresh or
    copied from the block before it when the two share a type, so that
    classes of one type meet equal block sums and minima."""
    p, points = s.params, []
    for _ in range(8 * count):
        blocks: list[list[int]] = []
        for i in range(p.k):
            same = i and (p.a[i], p.b[i]) == (p.a[i - 1], p.b[i - 1]) and rng.random() < 0.5
            blocks.append(blocks[-1] if same else [rng.randint(-2, 3) for _ in range(p.b[i])])
        x = tuple(itertools.chain.from_iterable(blocks))
        if s.group_member(x):
            points.append(x)
    return points[:count]


@pytest.mark.parametrize("p", CASES, ids=label)
def test_build_and_odd_shapes_against_the_replaced_routes(p):
    check_build(p)
    s = build_semigroup_from_params(p)
    check_odd_shapes(s, itertools.product(*(range(ai + 3) for ai in p.a)))


def test_every_witness_scan_against_the_replaced_route(monkeypatch):
    # Every scan `classify` runs, with the evidence, re-checks a witness of
    # one of the four routes; each is compared, (member mask, N*) per class.
    scan, routes = hoatrung._sf_scan, set()

    def checking(s, x, classes):
        out = scan(s, x, classes)
        assert out == keyed_sf_scan(s, x, classes), (s.params, x)
        routes.add(sys._getframe(2).f_code.co_name)  # the caller of `_sf_facets`
        return out

    monkeypatch.setattr(hoatrung, "_sf_scan", checking)
    for p in CASES:
        classify(p, full_evidence=True)
    assert routes == WITNESS_ROUTES


@given(BLOCK_TYPES, st.randoms(use_true_random=False))
@example(SVParams.of([1] * 4, [1] * 4), random.Random(0))
@example(SVParams.of([1] * 4 + [2] * 4, [1] * 8), random.Random(0))
@example(SVParams.of([1, 1], [1, 1]), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_on_block_types_with_multiplicities(p, rng):
    check_build(p)
    s = build_semigroup_from_params(p)
    for x in group_points(s, rng):
        assert hoatrung._sf_scan(s, x, s.facet_classes) == keyed_sf_scan(s, x, s.facet_classes)
    check_odd_shapes(s, [tuple(rng.randint(0, ai + 2) for ai in p.a) for _ in range(40)])
