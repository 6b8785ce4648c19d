#!/usr/bin/env python3
"""Benchmark of the svtangent classification pipeline.

One operation is one `classify` call on one parameter triple, made through
the package's public API in this single serial process.  An operation fails
if it raises, returns an undetermined verdict, disagrees with the
classification table, or returns a verdict quadruple other than the one
stored for it in workloads.json.

    python3 bench/run.py --workload grid --seed 1 --seconds 16 --trace 0

With --trace 0 the run reports the end-to-end metrics, with every time
scaled to a reference host speed (see REFERENCE_LOOP_S); with --trace 1 it
reports the per-layer metrics of a traced run (see bench/tracing.py) and
writes its spans to bench/out/.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it records the seed, core count, Python version and git commit.  The exit
code is 0 only if every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from tracing import COUNTERS, Tracer, metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")
OUT_DIR = os.path.join(HERE, "out")

# Run-seconds per pass: a run of `seconds` makes round(seconds / PASS_S)
# passes over its workload, at least MIN_PASSES, so the number of repeats is
# set by the command line and never by the machine's speed.  At 16 s the
# values give grid 2, spot 6 and segre 4 passes, about 50, 35 and 35
# seconds: spot's time is one 3-second instance, whose median needs the
# most repeats to be steady.
PASS_S = {"grid": 8.0, "spot": 2.7, "segre": 4.0}
MIN_PASSES = 2

# Set-up is timed in this many fresh interpreters and reported as the median.
SETUP_PROBES = 7

# The host's speed drifts by up to half, between a slow and a fast state
# that each last from tens of seconds to minutes, whatever runs on it.
# Every end-to-end time is therefore scaled by REFERENCE_LOOP_S over the
# median time of `reference_loop` sampled next to it (every LOOP_EVERY_S
# seconds between calls): seconds at the speed at which that loop takes
# REFERENCE_LOOP_S, the fast state of the 2-core Xeon virtual machine the
# benchmark was written on.  The measured times are in the record line.
REFERENCE_LOOP_S = 0.0016
LOOP_EVERY_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Instance:
    params: object  # svtangent.model.SVParams
    subset_cap: int
    expect: tuple[str, str, str, str]

    @property
    def label(self) -> str:
        return f"a={list(self.params.a)} b={list(self.params.b)}"


def setup(workload: str) -> tuple:
    """Import the package and build the workload's instances.

    Returns (classify, instances) with the instances in the stored order.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from svtangent.classify import classify
    from svtangent.model import SVParams

    with open(WORKLOADS_FILE) as fh:
        stored = json.load(fh)[workload]
    instances = [
        Instance(SVParams.of(i["a"], i["b"]), i["subset_cap"], tuple(i["expect"]))
        for i in stored
    ]
    return classify, instances


def check(inst: Instance, report) -> Optional[str]:
    """None if the report passes the output check, else the reason."""
    got = report.verdict_quadruple()
    if report.has_undetermined:
        return f"{inst.label}: undetermined verdict {got}"
    if not report.agreement:
        return f"{inst.label}: {got} disagrees with the classification table"
    if got != inst.expect:
        return f"{inst.label}: {got} differs from the stored {inst.expect}"
    return None


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python integer loop takes now.  The
    loop does not touch the package, so only the host's speed moves it."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def host_speed(loop_samples: list[float]) -> float:
    """Factor that scales a time measured now to the reference speed."""
    return REFERENCE_LOOP_S / statistics.median(loop_samples)


def run_passes(classify, instances, passes, rng, tracer=None):
    """Decide every instance `passes` times, each pass in a fresh order drawn
    from `rng`, timing the reference loop between calls.

    Returns (pass times, per-instance lists of call times in the stored
    order, failure reasons, host speed per pass); a pass time is the sum of
    its call times."""
    call = classify if tracer is None else tracer.wrap("classify.call", classify)
    walls: list[float] = []
    times: list[list[float]] = [[] for _ in instances]
    failures: list[str] = []
    speeds: list[float] = []
    clock = time.perf_counter
    for _ in range(passes):
        order = list(range(len(instances)))
        rng.shuffle(order)
        loops: list[float] = []
        last_loop = -LOOP_EVERY_S
        wall = 0.0
        for i in order:
            if clock() - last_loop >= LOOP_EVERY_S:
                loops += [reference_loop() for _ in range(3)]
                last_loop = clock()
            inst = instances[i]
            if tracer is not None:
                tracer.instance += 1
            t0 = clock()
            try:
                report = call(inst.params, subset_cap=inst.subset_cap)
            except Exception as err:  # a raising call is a failed operation
                report = None
                failures.append(f"{inst.label}: raised {err!r}")
            elapsed = clock() - t0
            times[i].append(elapsed)
            wall += elapsed
            problem = None if report is None else check(inst, report)
            if problem is not None:
                failures.append(problem)
        loops += [reference_loop() for _ in range(3)]
        walls.append(wall)
        speeds.append(host_speed(loops))
    return walls, times, failures, speeds


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile with at least ten samples
    beyond it, by nearest rank; the maximum, as p = 100, below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(0, math.ceil(p * n / 100) - 1)]


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload, that is, until its first timed call."""
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); import run; "
        f"run.setup({workload!r}); print('ready', flush=True)"
    )
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE
    ) as proc:
        line = proc.stdout.read(6)
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def measure(args, classify, instances) -> tuple[dict, dict, int, list]:
    """Untraced run: (metrics, record, attempted, failures).

    Every time is scaled to the reference speed by the reference loop timed
    next to it, then reduced to a median over the run's repeats."""
    setups = []
    for _ in range(SETUP_PROBES):
        speed = host_speed([reference_loop() for _ in range(3)])
        setups.append((probe_setup(args.workload), speed))
    passes = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    walls, times, failures, speeds = run_passes(
        classify, instances, passes, random.Random(args.seed)
    )
    typical = [statistics.median(t * f for t, f in zip(ts, speeds)) for ts in times]
    p, tail_value = tail(typical)
    values = {
        "setup_s": statistics.median(t * f for t, f in setups),
        "wall_s": statistics.median(w * f for w, f in zip(walls, speeds)),
        "instance_p50_s": statistics.median(typical),
        "instance_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "passes": passes,
        "instances": len(typical),
        "tail_percentile": p,
        "measured_setup_s": [t for t, _ in setups],
        "measured_pass_s": walls,
        "host_speed_per_pass": speeds,
    }
    return values, record, passes * len(instances), failures


def measure_traced(args, classify, instances) -> tuple[dict, dict, int, list]:
    """Untraced passes, then as many traced passes: (metrics, record,
    attempted, failures).  Per-layer values are per traced pass."""
    passes = max(1, round(args.seconds / 2 / PASS_S[args.workload]))
    rng = random.Random(args.seed)
    plain_walls, _, failures, _ = run_passes(classify, instances, passes, rng)
    tracer = Tracer()
    with tracer.installed():
        walls, _, traced_failures, _ = run_passes(classify, instances, passes, rng, tracer)
    values = {}
    for name, (calls, busy, own) in tracer.layer_totals().items():
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.busy_s"] = busy / passes
        values[f"{name}.self_s"] = own / passes
    for name in COUNTERS:
        values[name] = tracer.counts[name] / passes
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_walls)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans_file, environment(args))
    record = {
        "passes": passes,
        "untraced_walls_s": plain_walls,
        "traced_walls_s": walls,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_file, ROOT),
    }
    return values, record, 2 * passes * len(instances), failures + traced_failures


def result(units: dict, values: dict, attempted: int, failures: list) -> dict:
    """The run's result object, printed as the last line of standard output."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "svtangent")):
        print(f"svtangent package not found under {SRC}", file=sys.stderr)
        return 2
    classify, instances = setup(args.workload)
    if args.trace:
        units = metric_units()
        values, record, attempted, failures = measure_traced(args, classify, instances)
    else:
        units = END_TO_END
        values, record, attempted, failures = measure(args, classify, instances)
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:9s} {name:34s} {values[name]:14.6f} {unit}")
    record.update(
        environment(args),
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result(units, values, attempted, failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
