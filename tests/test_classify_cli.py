import csv
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from svtangent.classify import (
    CSV_COLUMNS,
    classify,
    expected_verdicts,
    normalized_grid,
    sweep,
)
import svtangent
from svtangent import model
from svtangent.cli import main
from svtangent.hoatrung import cm_verdict, gorenstein_witness
from svtangent.membership import is_smooth
from svtangent.model import SVParams, build_semigroup


def module_env() -> dict:
    """The environment of a `python -m svtangent.cli` subprocess that runs
    this checkout's package."""
    src = str(Path(svtangent.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}


class TestExpectedTable:
    def test_smooth_clauses(self):
        assert expected_verdicts(SVParams.of([1, 1], [1, 3])).clauses == ("S1",)
        assert expected_verdicts(SVParams.of([1], [2])).clauses == ("S2",)
        assert expected_verdicts(SVParams.of([2], [1])).clauses == ("S2",)

    def test_cm_and_gorenstein_clauses(self):
        e = expected_verdicts(SVParams.of([1, 1, 1], [1, 1, 1]))
        assert "CM1" in e.clauses and "G1" in e.clauses and "N1" in e.clauses
        assert e.cohen_macaulay and e.gorenstein and e.normal and not e.smooth
        e = expected_verdicts(SVParams.of([1, 2], [1, 3]))
        assert e.clauses == ("CM3",)
        e = expected_verdicts(SVParams.of([2, 2], [1, 2]))
        assert e.clauses == ()
        assert not e.cohen_macaulay

    def test_gorenstein_implies_cm_throughout(self):
        for p in normalized_grid(3, 3, 3):
            e = expected_verdicts(p)
            if e.gorenstein:
                assert e.cohen_macaulay
            if e.smooth:
                assert e.normal and e.cohen_macaulay and e.gorenstein

    def test_table_is_total(self):
        for p in normalized_grid(3, 3, 3):
            e = expected_verdicts(p)
            assert isinstance(e.smooth, bool)
            assert isinstance(e.cohen_macaulay, bool)


class TestClassify:
    def test_triple_segre_point(self):
        r = classify(SVParams.of([1, 1, 1], [1, 1, 1]))
        assert r.agreement
        assert r.gorenstein.status == "yes"
        assert "G1" in r.expected.clauses

    def test_mixed_degree_family(self):
        r = classify(SVParams.of([1, 2], [1, 3]))
        assert r.agreement
        assert r.cohen_macaulay.status == "yes"
        assert r.gorenstein.status == "no"

    @pytest.mark.parametrize(
        "a,b,normal",
        [
            ([1, 2], [1, 3], "no"),
            ([3], [3], "no"),
            ([1, 3], [1, 2], "no"),
            ([1, 1, 1], [2, 2, 2], "yes"),
            ([2], [3], "yes"),
            ([1, 1], [2, 2], "yes"),
            ([2], [8], "yes"),
        ],
    )
    def test_classify_builds_no_generator_vector(self, a, b, normal):
        # The ray test of a normal cone reads each ray off a generator of
        # sum two, so every instance is classified from the ray masks and
        # the block sums alone: the package has no listing of generator
        # vectors (it is the test oracle `generator_vectors`).
        report = classify(SVParams.of(a, b))
        assert report.normal.status == normal
        assert not hasattr(model, "generator_vectors")
        assert not hasattr(model.AffineSemigroup, "generators")

    def test_not_cm_case(self):
        r = classify(SVParams.of([2, 2], [1, 2]))
        assert r.agreement
        assert r.cohen_macaulay.status == "no"
        assert r.expected.clause_label() == "none"

    def test_zero_semigroup_short_circuit(self):
        r = classify(SVParams.of([1], [2]))
        assert r.agreement
        assert r.verdict_quadruple() == ("yes", "yes", "yes", "yes")
        assert r.rank == 0

    @pytest.mark.parametrize(
        "a,b,zero",
        [
            ([1], [1], True),
            ([1], [2], True),
            ([1], [3], True),
            ([2], [1], False),
            ([3], [1], False),
            ([1, 1], [1, 1], False),
        ],
    )
    def test_zero_semigroup_is_the_one_without_facets(self, a, b, zero):
        # The zero semigroups (1),(b) have no facet and every verdict says
        # so; a rank-one cone keeps its origin facet, so none of the four
        # takes that route.
        s = build_semigroup(a, b)
        assert (not s.facets, not s.ray_masks, s.rank) == (zero, zero, 0 if zero else 1)
        reasons = [
            classify(s.params).smooth.detail,
            cm_verdict(s).reason,
            is_smooth(s).reason,
            gorenstein_witness(s).reason,
        ]
        assert [r.startswith("zero semigroup") for r in reasons] == [zero] * 4

    def test_implications_hold(self):
        for p in normalized_grid(2, 2, 2):
            r = classify(p)
            if r.gorenstein.status == "yes":
                assert r.cohen_macaulay.status == "yes"
            if r.smooth.status == "yes":
                assert r.normal.status == "yes"

    def test_dimension_report(self):
        r = classify(SVParams.of([2], [2]))
        assert (r.n, r.rank, r.dim_tangential) == (2, 2, 4)

    def test_normalization_is_transparent(self):
        r1 = classify(SVParams.of([2, 1], [3, 1]))
        r2 = classify(SVParams.of([1, 2], [1, 3]))
        assert r1.verdict_quadruple() == r2.verdict_quadruple()
        assert r1.params.original_a == (2, 1)
        assert r1.params.a == (1, 2)

    def test_csv_row_shape(self):
        r = classify(SVParams.of([2], [3]))
        row = r.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "1"
        assert row[-1] == "true"


class TestTableIsReadOnlyForAgreement:
    def test_opposite_table_flips_every_agreement_and_nothing_else(self, monkeypatch):
        # With the table patched to expect the opposite of every verdict, the
        # grid's verdicts, details, witnesses and evidence do not move, and
        # every agreement flips: no verdict is read off the table's case
        # split.  The normality closed form coincides with the N1/N2 split,
        # so this is what shows that it reads the model.
        module = importlib.import_module("svtangent.classify")
        grid = normalized_grid(3, 3, 3) + [SVParams.of([1] * 4, [1] * 4)]
        before = [classify(p) for p in grid]
        table = module.expected_verdicts

        def opposite(p):
            e = table(p)
            return dataclasses.replace(
                e,
                smooth=not e.smooth,
                normal=not e.normal,
                cohen_macaulay=not e.cohen_macaulay,
                gorenstein=not e.gorenstein,
            )

        monkeypatch.setattr(module, "expected_verdicts", opposite)
        for p, want in zip(grid, before):
            got = classify(p)
            for name in ("smooth", "normal", "cohen_macaulay", "gorenstein"):
                assert getattr(got, name) == getattr(want, name), (p, name)
            assert got.radius == want.radius and got.bound == want.bound
            assert got.evidence == want.evidence
            assert want.agreement and not got.agreement, p


class TestSweep:
    def test_small_sweeps_agree(self):
        for bounds in [(1, 3, 2), (2, 2, 2), (3, 2, 2)]:
            reports, summary = sweep(*bounds)
            assert summary.all_agree, bounds
            assert summary.total == len(reports)

    def test_parallel_sweep_matches_serial(self):
        serial = sweep(2, 2, 2)
        parallel = sweep(2, 2, 2, jobs=2)
        assert parallel[1] == serial[1]
        assert [r.to_dict() for r in parallel[0]] == [r.to_dict() for r in serial[0]]

    def test_batched_parallel_sweep_matches_serial(self, monkeypatch):
        # sweep(3, 3, 3) and its extra make 220 instances: 2 workers take
        # them in chunks of 220 // 32 = 6, so the reports come back from
        # 37 tasks, and still in the serial order.
        import concurrent.futures

        chunks = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunks.append((len(iterables[0]), chunksize))
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        extra = [SVParams.of([1] * 4, [1] * 4)]
        serial = sweep(3, 3, 3, extra=extra)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        parallel = sweep(3, 3, 3, extra=extra, jobs=2)
        assert chunks == [(220, 6)]
        assert parallel[1] == serial[1]
        assert [r.to_dict() for r in parallel[0]] == [r.to_dict() for r in serial[0]]

    @pytest.mark.parametrize(
        "bounds,jobs,workers", [((1, 1, 1), 8, 1), ((1, 2, 1), 64, 2), ((2, 2, 2), 3, 3)]
    )
    def test_parallel_sweep_starts_no_more_workers_than_instances(
        self, monkeypatch, bounds, jobs, workers
    ):
        # A fork-started pool forks all max_workers at the first submit, so
        # the pool must be no wider than the grid.  The fake pool records
        # its width and runs each call inline: no process is started.
        import concurrent.futures

        widths = []

        class InlinePool(concurrent.futures.Executor):
            def __init__(self, max_workers):
                widths.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        reports, summary = sweep(*bounds, jobs=jobs)
        assert widths == [workers] and summary.all_agree
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in sweep(*bounds)[0]]

    def test_grid_is_duplicate_free(self):
        grid = normalized_grid(2, 3, 3)
        assert len(grid) == len(set(grid))

    @pytest.mark.parametrize(
        "bounds,jobs",
        [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, -2), 1), ((1, 1, 1), 0), ((1, 1, 1), -2)],
    )
    def test_bounds_and_jobs_below_one_are_refused(self, bounds, jobs):
        # (0, 1, 1) used to return an empty summary that all agreed, and
        # jobs=-2 ran serially, where the CLI refuses both.
        with pytest.raises(ValueError, match="at least 1"):
            sweep(*bounds, jobs=jobs)

    @pytest.mark.parametrize(
        "argv",
        [["0", "1", "1"], ["1", "-1", "1"], ["1", "1", "0"], ["1", "1", "1", "--jobs", "0"]],
    )
    def test_module_command_refuses_values_below_one(self, argv):
        # CI runs `python -m svtangent.cli sweep` and relies on its exit
        # status; a bound or job count below 1 must fail the process.
        max_k, max_a, max_b, *rest = argv
        run = subprocess.run(
            [sys.executable, "-m", "svtangent.cli", "sweep", "--max-k", max_k,
             "--max-a", max_a, "--max-b", max_b, *rest],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert run.returncode == 1
        assert "must be at least 1" in run.stderr


class TestCli:
    def test_classify_text(self, capsys):
        code = main(["classify", "--a", "1,2", "--b", "1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gorenstein:     yes" in out
        assert "G2" in out
        # The largest radius is that of the top box of G_F, the one box a
        # walk scans here: it is the point x0 = (0, -1), of radius 1.  The
        # re-check of x0 on the balance facet F_{1} steps by y0 with block
        # sums (1, 1): block 2 reaches a_2 = 2 at N = 3, so N* = 4.
        assert "(largest radius=1, re-check multiple=4)" in out

    def test_classify_json(self, capsys):
        code = main(["classify", "--a", "2", "--b", "2", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"] is True
        assert payload["verdicts"]["gorenstein"]["status"] == "yes"

    def test_classify_csv(self, capsys):
        code = main(["classify", "--a", "2,2", "--b", "1,1", "--format", "csv"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_COLUMNS
        assert rows[1][CSV_COLUMNS.index("cm")] == "yes"
        assert rows[1][CSV_COLUMNS.index("gorenstein")] == "no"

    def test_sweep_exit_code(self, capsys):
        code = main(["sweep", "--max-k", "1", "--max-a", "3", "--max-b", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disagreements=0" in out

    def test_examples_command(self, capsys):
        code = main(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7/7 cases pass" in out

    def test_ideal_from_file(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1,2\n1,4\n2,3,4\n")
        code = main(["ideal", "--complex", str(path), "--max-degree", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x_{12}x_{34} - x_{14}x_{23}" in out or "x_{14}x_{23}" in out

    def test_ideal_no_relations(self, capsys):
        code = main(["ideal", "--a", "1,1", "--b", "1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no relations" in out

    def test_ideal_veronese_conic(self, capsys):
        code = main(["ideal", "--a", "2", "--b", "2", "--max-degree", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x_{11}x_{22}" in out and "x_{12}^2" in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["classify", "--a", "0", "--b", "1"]) == 1
        assert main(["classify", "--a", "1,2"]) == 1  # argparse: missing --b

    @pytest.mark.parametrize(
        "argv",
        [
            # There is no window setting: no search needs a chosen box.
            ["classify", "--a", "2", "--b", "1", "--window", "8"],
            ["sweep", "--max-k", "1", "--max-a", "1", "--max-b", "1", "--window", "8"],
            ["ideal", "--a", "2", "--b", "2", "--max-degree", "1"],
            # Each re-check multiple is proved per facet; there is no flag
            # for it.
            ["classify", "--a", "2,2", "--b", "1,2", "--bound", "5"],
            ["sweep", "--max-k", "1", "--max-a", "1", "--max-b", "1", "--bound", "0"],
            ["sweep", "--max-k", "0", "--max-a", "1", "--max-b", "1"],
            ["sweep", "--max-k", "1", "--max-a", "0", "--max-b", "1"],
            ["sweep", "--max-k", "1", "--max-a", "1", "--max-b", "-2"],
            ["sweep", "--max-k", "1", "--max-a", "1", "--max-b", "1", "--jobs", "0"],
            # A negative cap can never be met: it would turn decidable
            # instances into undetermined ones.
            ["classify", "--a", "2", "--b", "2", "--subset-cap", "-1"],
            ["sweep", "--max-k", "1", "--max-a", "1", "--max-b", "1", "--subset-cap", "-1"],
        ],
        ids=["classify-window", "sweep-window", "ideal-degree", "classify-bound",
             "sweep-bound", "sweep-max-k", "sweep-max-a", "sweep-max-b", "sweep-jobs",
             "classify-subset-cap", "sweep-subset-cap"],
    )
    def test_bad_setting_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_complex_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\n3,,4\n")
        code = main(["ideal", "--complex", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_output_directory_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SVTANGENT_OUTDIR", str(tmp_path))
        main(["classify", "--a", "2", "--b", "1", "--format", "json"])
        capsys.readouterr()
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["params"]["a"] == [2]

    def test_closed_stdout_ends_quietly(self):
        # `svtangent classify ... | head -3` used to print a BrokenPipeError
        # traceback and exit 1.  The reader here closes stdout before the
        # report is written, so the first write already fails.
        proc = subprocess.Popen(
            [sys.executable, "-m", "svtangent.cli", "classify", "--a", "1,2", "--b", "1,3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        # The verdicts agree with the table, so the exit code is 0.
        assert proc.wait(timeout=60) == 0
        assert err == ""


class TestSerializationSurfaces:
    def test_complex_json(self):
        from svtangent.simplicial import LabeledComplex

        d = LabeledComplex.segre_veronese([2], [1]).to_dict()
        json.dumps(d)
        assert d["simplices"] == [[], [0], [0, 0]]

    def test_verdict_json(self):
        from svtangent.membership import is_normal, is_smooth
        from svtangent.model import build_semigroup

        s = build_semigroup([1, 2], [1, 1])
        nd = is_normal(s).to_dict()
        assert nd["verdict"] == "not-normal" and nd["witness"] == [0, 1]
        sd = is_smooth(s).to_dict()
        assert sd["verdict"] == "not-smooth"

    def test_j_record_json_carries_complex_data(self):
        # The listing has the six orbits the verdict visits, of the ten
        # orbits of the listing of every orbit.  A pi_J settled by its
        # nonzero Euler characteristic is not built, so its record has no
        # ranks where the built complex had [0, 1].
        from oracles import all_orbit_j_records
        from svtangent.hoatrung import _orbit_masks, j_records

        s = build_semigroup([1, 2], [1, 2])
        records, stopped = j_records(s)
        assert stopped is None and len(records) == len(_orbit_masks(s)) == 6
        built = {tuple(r["J"]): r for r in all_orbit_j_records(s)[0]}
        assert len(built) == 10
        d = next(r for r in records if r["acyclic"] is False and len(r["J"]) == 2)
        assert d["homology_ranks"] is None
        assert built[tuple(d["J"])] == {**d, "homology_ranks": [0, 1]}
        assert d["gj_status"] == "empty"
        assert d["pi_maximal_faces"]
        assert json.loads(json.dumps(d)) == d
