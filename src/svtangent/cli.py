"""Command-line front end.

Subcommands:
  classify   one parameter triple, with verdicts and table comparison
  sweep      a parameter grid, with an agreement summary
  examples   the seven reference cases with detailed artifact checks
  ideal      binomial relations of a parameter triple or a complex file

Exit codes: 0 all verdicts agree, 2 a disagreement was found, 3 undetermined
verdicts are present, 1 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from .classify import (
    CSV_COLUMNS,
    ClassificationReport,
    classify,
    sweep,
)
from .hoatrung import SUBSET_CAP
from .model import SVParams
from .simplicial import LabeledComplex
from .toricideal import (
    ComplexFileError,
    enumerate_binomials,
    format_relation,
    parse_complex_file,
)
from .workedcases import format_results, run_worked_cases

OUTPUT_DIR_ENV = "SVTANGENT_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_UNDETERMINED = 3


class UsageError(Exception):
    pass


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _params_from_args(args) -> SVParams:
    a = _parse_int_list(args.a)
    b = _parse_int_list(args.b)
    try:
        return SVParams.of(a, b)
    except ValueError as err:
        raise UsageError(str(err))


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _report_text(report: ClassificationReport) -> str:
    p = report.params
    lines = [
        f"parameters: k={p.k} a={list(p.a)} b={list(p.b)}"
        + (
            f"  (normalized from a={list(p.original_a)} b={list(p.original_b)})"
            if p.original_a and (p.original_a != p.a or p.original_b != p.b)
            else ""
        ),
        f"dimensions: n={report.n} rank={report.rank} "
        f"tangential dimension={report.dim_tangential}",
        f"facets: {', '.join(report.evidence.get('facets', [])) or 'none'}",
        f"smooth:         {report.smooth.status:12s} {report.smooth.detail}",
        f"normal:         {report.normal.status:12s} {report.normal.detail}",
        f"cohen-macaulay: {report.cohen_macaulay.status:12s} {report.cohen_macaulay.detail}",
        f"gorenstein:     {report.gorenstein.status:12s} {report.gorenstein.detail}",
        f"expected clauses: {report.expected.clause_label()}",
        f"agreement: {report.agreement}   (largest radius={report.radius}, "
        f"re-check multiple={report.bound})",
    ]
    return "\n".join(lines)


def _csv_text(reports: Sequence[ClassificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(r.csv_row())
    return buf.getvalue()


def _emit(text: str, filename: str) -> None:
    """Print the text, ended by one line break, and write it to the output
    directory when one is set.  CSV text already ends with its writer's
    terminator, so it is printed as is.

    A reader that closes stdout early (`svtangent classify ... | head -3`)
    is not an error: stdout is pointed at the null device, so that neither
    this print nor the interpreter's last flush raises again, and the
    command ends quietly with the exit code of its verdicts."""
    text = text if text.endswith("\n") else text + "\n"
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, filename), "w") as fh:
            fh.write(text)


def _exit_code(reports: Sequence[ClassificationReport]) -> int:
    if any(not r.agreement and not r.has_undetermined for r in reports):
        return EXIT_DISAGREEMENT
    if any(r.has_undetermined for r in reports):
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_classify(args) -> int:
    params = _params_from_args(args)
    report = classify(params, subset_cap=args.subset_cap, full_evidence=args.evidence)
    stem = f"classify-k{params.k}-a{'_'.join(map(str, params.a))}-b{'_'.join(map(str, params.b))}"
    if args.format == "json":
        _emit(report.to_json(indent=2), stem + ".json")
    elif args.format == "csv":
        _emit(_csv_text([report]), stem + ".csv")
    else:
        _emit(_report_text(report), stem + ".txt")
    return _exit_code([report])


def cmd_sweep(args) -> int:
    reports, summary = sweep(
        args.max_k,
        args.max_a,
        args.max_b,
        subset_cap=args.subset_cap,
        jobs=args.jobs,
    )
    if args.format == "json":
        payload = {
            "summary": {
                "total": summary.total,
                "agreements": summary.agreements,
                "disagreements": summary.disagreements,
                "undetermined": summary.undetermined,
            },
            "reports": [r.to_dict() for r in reports],
        }
        _emit(json.dumps(payload, indent=2), "sweep.json")
    elif args.format == "csv":
        _emit(_csv_text(reports), "sweep.csv")
    else:
        lines = []
        for r in reports:
            mark = "ok" if r.agreement else ("??" if r.has_undetermined else "XX")
            lines.append(
                f"{mark} a={','.join(map(str, r.params.a)):9s} "
                f"b={','.join(map(str, r.params.b)):9s} "
                f"verdicts={'/'.join(r.verdict_quadruple()):32s} "
                f"clauses={r.expected.clause_label()}"
            )
        lines.append(
            f"total={summary.total} agreements={summary.agreements} "
            f"disagreements={summary.disagreements} "
            f"undetermined={summary.undetermined}"
        )
        _emit("\n".join(lines), "sweep.txt")
    return _exit_code(reports)


def cmd_examples(args) -> int:
    results = run_worked_cases()
    _emit(format_results(results), "examples.txt")
    return EXIT_OK if all(r.passed for r in results) else EXIT_DISAGREEMENT


def cmd_ideal(args) -> int:
    if args.complex:
        try:
            with open(args.complex) as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(str(err))
        complex_ = parse_complex_file(text)
        source = args.complex
    else:
        if not (args.a and args.b):
            raise UsageError("either --complex FILE or both --a and --b are required")
        params = _params_from_args(args)
        complex_ = LabeledComplex.segre_veronese(params.a, params.b)
        source = f"a={list(params.a)} b={list(params.b)}"
    relations = enumerate_binomials(complex_, args.max_degree)
    lines = [
        f"complex: {source} "
        f"({complex_.num_distinct} distinct simplices)",
    ]
    if not relations:
        lines.append("no relations")
    for r in relations:
        lines.append(format_relation(complex_, r))
    if args.format == "json":
        payload = {
            "source": source,
            "relations": [
                {
                    "plus": list(r.plus),
                    "minus": list(r.minus),
                    "degree": r.degree,
                    "image_degree": r.image_degree,
                    "text": format_relation(complex_, r),
                }
                for r in relations
            ],
        }
        _emit(json.dumps(payload, indent=2), "ideal.json")
    else:
        _emit("\n".join(lines), "ideal.txt")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svtangent",
        description="Exact classification of the toric models of tangential "
        "varieties of Segre-Veronese varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one parameter triple")
    c.add_argument("--a", required=True, help="comma-separated degrees")
    c.add_argument("--b", required=True, help="comma-separated block sizes")
    c.add_argument("--subset-cap", type=_at_least(0), default=SUBSET_CAP)
    c.add_argument(
        "--evidence", action="store_true",
        help="include the facet criterion's record of each facet subset its loop visits, "
        "one per orbit, where it decides; a normal cone's report is the plain one",
    )
    c.add_argument("--format", choices=["text", "json", "csv"], default="text")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="classify a whole parameter grid")
    s.add_argument("--max-k", type=_at_least(1), required=True)
    s.add_argument("--max-a", type=_at_least(1), required=True)
    s.add_argument("--max-b", type=_at_least(1), required=True)
    s.add_argument("--subset-cap", type=_at_least(0), default=SUBSET_CAP)
    s.add_argument("--jobs", type=_at_least(1), default=1)
    s.add_argument("--format", choices=["text", "json", "csv"], default="text")
    s.set_defaults(func=cmd_sweep)

    e = sub.add_parser("examples", help="run the seven reference cases")
    e.set_defaults(func=cmd_examples)

    i = sub.add_parser("ideal", help="binomial relations of the embedding")
    i.add_argument("--a", default=None)
    i.add_argument("--b", default=None)
    i.add_argument("--complex", default=None, help="complex file, one simplex per line")
    i.add_argument("--max-degree", type=_at_least(2), default=6)
    i.add_argument("--format", choices=["text", "json"], default="text")
    i.set_defaults(func=cmd_ideal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors; remap to the documented code
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ComplexFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
