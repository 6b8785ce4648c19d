"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions from outside the package,
keeps one span per wrapped call in memory and derives per-layer counts,
busy times and self times from them.  A span records its parent span, the
id of the instance being classified, its name and its start and end.

`from .x import f` binds f in the importing module when that module is
imported, so each layer is wrapped in the namespace where its caller looks
the name up: `svtangent.classify.cm_verdict`, not `svtangent.hoatrung.cm_verdict`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

ROOT_SPAN = "classify.call"


def _enumerated_points(counts, args, result) -> None:
    counts["regions.enumerate.points"] += len(result)


def _cm_undetermined(counts, args, result) -> None:
    counts["hoatrung.cm.undetermined"] += result.status == "undetermined"


def _homology_faces(counts, args, result) -> None:
    counts["simplicial.faces"] += len(args[0].faces)


# (span name, module, class or None, attribute, counter hook).  The module
# is the one whose namespace the caller reads the name from.
LAYERS = (
    ("model.build", "svtangent.classify", None, "build_semigroup_from_params", None),
    ("hoatrung.profiles", "svtangent.classify", None, "build_profiles", None),
    ("membership.normal", "svtangent.classify", None, "is_normal", None),
    ("membership.smooth", "svtangent.classify", None, "is_smooth", None),
    ("hoatrung.cm", "svtangent.classify", None, "cm_verdict", _cm_undetermined),
    ("hoatrung.gorenstein", "svtangent.classify", None, "gorenstein_witness", None),
    ("hoatrung.sprime", "svtangent.hoatrung", None, "s_prime_equals_s", None),
    ("membership.holes", "svtangent.hoatrung", None, "find_holes", None),
    ("membership.holes", "svtangent.membership", None, "find_holes", None),
    ("regions.enumerate", "svtangent.regions", "Region", "enumerate_points", _enumerated_points),
    ("regions.find", "svtangent.regions", "Region", "find_point", None),
    ("regions.max_total", "svtangent.regions", "Region", "max_total", None),
    ("regions.max_coordinate", "svtangent.regions", "Region", "max_coordinate", None),
    ("simplicial.acyclic", "svtangent.simplicial", "AbstractComplex", "is_acyclic", None),
    ("simplicial.homology", "svtangent.simplicial", "AbstractComplex",
     "reduced_homology_ranks", _homology_faces),
    ("simplicial.euler", "svtangent.simplicial", "AbstractComplex",
     "euler_characteristic_reduced", None),
    ("lattice.rank", "svtangent.simplicial", None, "integer_rank", None),
)

COUNTERS = (
    "hoatrung.cm.undetermined",
    "regions.enumerate.points",
    "regions.overflows",
    "simplicial.faces",
)


def span_names() -> list[str]:
    names = [ROOT_SPAN]
    for name, *_ in LAYERS:
        if name not in names:
            names.append(name)
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans as rows [parent, instance, name, start, end]; a span's
    id is its index in `spans`, and a root span has parent -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = 0
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        overflow: Optional[type] = None,
    ) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [stack[-1] if stack else -1, self.instance, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(row)
            row[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if overflow is not None and isinstance(err, overflow):
                    counts["regions.overflows"] += 1
                raise
            finally:
                row[4] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer of LAYERS for the duration of the block and
        restore the original objects afterwards, also on error."""
        overflow = importlib.import_module("svtangent.regions").EngineOverflow
        undo = []
        try:
            for name, module, cls, attr, after in LAYERS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(
                    owner, attr,
                    self.wrap(name, original, after,
                              overflow if name.startswith("regions.") else None),
                )
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, _, start, end) in enumerate(self.spans)]

    def layer_totals(self) -> dict[str, list]:
        """{span name: [calls, busy seconds, self seconds]}."""
        totals = {name: [0, 0.0, 0.0] for name in span_names()}
        for (_, _, name, start, end), own in zip(self.spans, self.self_times()):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += own
        return totals

    def write(self, path: str, meta: dict) -> None:
        """Write the spans as JSON: `names` indexes the span names and each
        row is [parent, instance, name index, start, end]."""
        names = span_names()
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": names,
                    "spans": [[p, inst, index[n], s, e]
                              for p, inst, n, s, e in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
