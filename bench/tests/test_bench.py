"""Tests of the benchmark harness itself (not of the package).

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import importlib
import json
import math
import os
import random
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

with open(run.WORKLOADS_FILE) as _fh:
    STORED = json.load(_fh)


def cheapest(workload):
    """The stored instance with the fewest coordinates (then smallest b)."""
    return min(STORED[workload], key=lambda i: (sum(i["b"]), i["b"]))


def one_instance_file(tmp_path, workload, instance):
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps({workload: [instance]}))
    return str(path)


def run_main(capsys, args):
    code = run.main(args)
    return code, capsys.readouterr().out.strip().splitlines()


def test_names_match_the_pattern_and_the_harness():
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in workloads + list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert sorted(workloads) == sorted(run.PASS_S) == sorted(STORED)
    assert e2e == run.END_TO_END
    assert layers == tracing.metric_units()


def test_grid_workload_is_the_acceptance_grid():
    sys.path.insert(0, run.SRC)
    from svtangent.classify import normalized_grid

    stored = [(tuple(i["a"]), tuple(i["b"])) for i in STORED["grid"]]
    grid = [(p.a, p.b) for p in normalized_grid(3, 3, 3)] + [((1,) * 4, (1,) * 4)]
    assert stored == grid


@pytest.mark.parametrize("workload", sorted(run.PASS_S))
def test_one_instance_smoke_run_passes_and_result_round_trips(
    workload, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(
        run, "WORKLOADS_FILE", one_instance_file(tmp_path, workload, cheapest(workload))
    )
    code, lines = run_main(
        capsys, ["--workload", workload, "--seed", "7", "--seconds", "1"]
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result
    record = json.loads(lines[-2])["record"]
    for key in ("seed", "nproc", "python", "commit", "passes", "tail_percentile"):
        assert key in record
    assert record["seed"] == 7


def test_altered_expected_quadruple_is_rejected(tmp_path, monkeypatch, capsys):
    instance = dict(cheapest("spot"))
    instance["expect"] = ["no" if s == "yes" else "yes" for s in instance["expect"]]
    monkeypatch.setattr(run, "WORKLOADS_FILE", one_instance_file(tmp_path, "spot", instance))
    code, lines = run_main(
        capsys, ["--workload", "spot", "--seed", "1", "--seconds", "1"]
    )
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_PASSES


def test_spans_nest_and_self_times_add_up():
    classify, instances = run.setup("segre")
    inst = min(instances, key=lambda i: i.params.n)
    tracer = tracing.Tracer()
    classify_module = importlib.import_module("svtangent.classify")
    original = classify_module.cm_verdict
    with tracer.installed():
        assert classify_module.cm_verdict is not original
        walls, _, failures, _ = run.run_passes(classify, [inst], 1, random.Random(0), tracer)
    assert classify_module.cm_verdict is original
    assert not failures
    spans = tracer.spans
    names = {s[2] for s in spans}
    assert {"hoatrung.cm", "regions.enumerate", "simplicial.homology", "lattice.rank"} <= names
    for parent, instance, name, start, end in spans:
        assert start <= end
        if parent < 0:
            assert name == tracing.ROOT_SPAN
            continue
        p_parent, p_instance, _, p_start, p_end = spans[parent]
        assert p_instance == instance
        assert p_start <= start and end <= p_end
    own = tracer.self_times()
    assert min(own) >= -1e-9
    roots = sum(e - s for p, _, _, s, e in spans if p < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    assert roots <= walls[0] and roots == pytest.approx(walls[0], rel=0.01)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 40, 220, 1000):
        samples = [float(i) for i in range(n)]
        p, value = run.tail(samples)
        assert sum(1 for s in samples if s > value) >= 10
        assert p == 100 * (n - 10) // n
        beyond_next = n - math.ceil((p + 1) * n / 100)
        assert beyond_next < 10
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)
