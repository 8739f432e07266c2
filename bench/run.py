#!/usr/bin/env python3
"""compnum benchmark: drives ``compnum.cli.main`` in-process over three workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The load is a closed loop: one client in this process sends each
CLI call after the previous one returned.  The package is imported afresh
before every pass, as a user's new process would start cold, so no state
carries from one pass to the next.  Passes repeat until ``--seconds`` is
used up (at least one); wall_s is the median pass, and each input's time the
median of its times over the passes.

``--trace 0`` reports the end-to-end metrics with no layer wrapped; the
survey, being one call, is timed per row by a probe on ``cli._survey_row``.
Every end-to-end time is scaled by the machine's speed, sampled with a fixed
reference kernel between calls (bench/speed.py), because the shared host's
speed moves by a third within seconds; the unscaled wall time is printed too.
``--trace 1`` alternates plain passes with traced passes, requires their
outputs to be identical, and reports the per-layer metrics of bench/tracing.py.
``--workload all`` runs every workload both ways, each in a fresh process,
and prints every metric by name with its unit.

Every run checks its answers (bench/workloads.py) and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
A wrong answer makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # more follow, one before each pass

END_TO_END = [
    ("wall_s", "s"),
    ("graphs_per_s", "1/s"),
    ("graph_p50_ms", "ms"),
    ("graph_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def fresh_compnum():
    """Import the package from src/ with no module left from an earlier pass."""
    for name in [m for m in sys.modules if m == "compnum" or m.startswith("compnum.")]:
        del sys.modules[name]
    compnum = importlib.import_module("compnum")
    importlib.import_module("compnum.cli")
    if Path(compnum.__file__).resolve().parent != SRC / "compnum":
        raise ImportError(f"compnum was imported from {compnum.__file__}, not from {SRC}")
    return compnum


ROW_STRIDE = 8  # survey rows between two speed samples


class Pass:
    """One pass over a workload's calls: timings, outputs and failed calls.

    The meter samples the machine's speed before every call, and every
    ROW_STRIDE survey rows inside the survey call; time spent sampling inside
    a call is taken out of the call's time.  Times are scaled by the speed
    around them (bench/speed.py)."""

    def __init__(self, compnum, workload: workloads.Workload, meter: speed.Meter,
                 tracer: tracing.Tracer | None = None):
        cli = compnum.cli
        main = cli.main
        if tracer is not None:
            tracing.install(tracer, compnum)
            main = tracer.wrap(cli.main, "cli.main")
        rows: list[tuple[float, float]] = []
        if workload.rows_probe:
            survey_row = cli._survey_row

            def timed_row(task):
                if len(rows) % ROW_STRIDE == 0:
                    meter.sample()
                start = perf_counter()
                row = survey_row(task)
                rows.append((start, perf_counter()))
                return row

            cli._survey_row = timed_row
        self.raw_wall = 0.0
        self.samples: list[float] = []
        self.outputs: dict = {}
        self.failed = 0
        calls: list[tuple[float, float]] = []
        for call in workload.calls:
            # The realizer's closures form reference cycles; collect them
            # here so a call starts on a clean heap, as in a new process,
            # and the order of the calls does not decide who pays for them.
            gc.collect()
            meter.sample()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = perf_counter()
                try:
                    rc = main(call.argv)
                except (Exception, SystemExit) as err:  # a crash fails the input, not the run
                    rc = f"{type(err).__name__}: {err}"
                end = perf_counter()
            calls.append((start, end))
            self.failed += rc not in workload.ok_codes
            witness = None
            if "--witness" in call.argv:
                path = Path(call.argv[call.argv.index("--witness") + 1])
                if rc == 0:
                    witness = path.read_text()
                path.unlink(missing_ok=True)
            self.outputs[call.key] = (rc, out.getvalue().strip(), witness)
        meter.sample()  # the last call's speed is measured on both sides too
        for start, end in calls:
            self.raw_wall += meter.busy(start, end)
            self.samples.append(meter.scaled(start, end))
        self.wall = sum(self.samples)
        if workload.rows_probe:
            self.samples = [meter.scaled(start, end) for start, end in rows]


def median_times(passes: list[Pass]) -> tuple[float, list[float]]:
    """The median pass time, and each input's median time over the passes."""
    per_input = [statistics.median(times) for times in zip(*(p.samples for p in passes))]
    return statistics.median(p.wall for p in passes), per_input


def tail_percentile(n: int) -> float:
    """Highest percentile, in tenths, with at least 10 of n samples beyond it."""
    return math.floor(1000 * (1 - 10 / n)) / 10


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def node_census(compnum, workload: workloads.Workload, outputs: dict) -> tuple[int, list[str], list[str]]:
    """Search nodes per k level of the exact workload, found by bisecting the
    public budget of find_realization.  An exhausted level counts as its budget."""
    realizer = compnum.realizer
    total, lines, problems = 0, [], []
    budget = workloads.EXACT_BUDGET
    for call in sorted(workload.calls, key=lambda c: c.key):
        outcome = workloads.exact_outcome(*outputs[call.key][:2])
        top = int(outcome.lstrip(">="))
        g = compnum.graphs.parse_graph6(call.graph6)
        levels = []
        for k in range(top + 1):
            if k == top and outcome.startswith(">="):
                nodes, shown = budget, f">={budget}"
            else:
                nodes = tracing.least_budget(realizer.find_realization, realizer.BudgetExceededError, g, k, budget)
                if nodes is None:
                    problems.append(f"input {call.key}: level k={k} no longer fits the budget it fitted in the CLI run")
                    nodes = budget
                shown = str(nodes)
            total += nodes
            levels.append(f"k{k}={shown}")
        lines.append(f"nodes input={call.key} n={g.n} " + " ".join(levels))
    return total, lines, problems


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    os.environ.pop("COMPNUM_BUDGET_NODES", None)  # the survey runs unbudgeted
    expected = json.loads((HERE / "expected.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    fresh_compnum()  # the first import of a fresh checkout also writes bytecode
    meter = speed.Meter()
    setups: list[tuple[float, float]] = []

    def set_up():
        meter.sample()
        start = perf_counter()
        compnum = fresh_compnum()
        workload = workloads.build(name, compnum, seed, WORKDIR)
        setups.append((start, perf_counter()))
        meter.sample()
        return compnum, workload

    for _ in range(SETUP_REPEATS):
        set_up()
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    tracers: list[tracing.Tracer] = []
    begin = perf_counter()
    while True:
        compnum, workload = set_up()
        plain.append(Pass(compnum, workload, meter))
        if traced:
            tracers.append(tracing.Tracer())
            traced_passes.append(Pass(fresh_compnum(), workload, meter, tracers[-1]))
        spent = perf_counter() - begin
        if spent + spent / len(plain) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    compnum = fresh_compnum()
    first = plain[0].outputs
    problems = workloads.check(name, compnum, workload, first, expected)
    reference = workloads.normalized(name, first)
    if any(workloads.normalized(name, p.outputs) != reference for p in plain[1:]):
        problems.append("outputs differ between plain passes")
    if any(workloads.normalized(name, p.outputs) != reference for p in traced_passes):
        problems.append("traced outputs differ from plain outputs")
    passes = plain + traced_passes
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.samples) for p in passes)
    n = len(plain[0].samples)
    info = [f"workload {name} seed {seed}: {workload.why}", f"corpus: {workload.composition}",
            f"passes {len(plain)} plain, {len(traced_passes)} traced; {n} inputs per pass"]

    if not traced:
        wall, per_input = median_times(plain)
        per_input.sort()
        pct = tail_percentile(n)
        info.append(f"graph_tail_ms is p{pct} of {n} inputs, each timed as its median over {len(plain)} passes")
        raw = statistics.median(p.raw_wall for p in plain)
        info.append(f"times are scaled to the reference speed; unscaled wall_s {raw:.4f} s, "
                    f"reference kernel median {statistics.median(meter.durations) * 1000:.3f} ms "
                    f"over {len(meter.durations)} samples (nominal {speed.NOMINAL_S * 1000:g} ms)")
        values = {
            "wall_s": wall,
            "graphs_per_s": n / wall,
            "graph_p50_ms": 1000 * statistics.median(per_input),
            "graph_tail_ms": 1000 * nearest_rank(per_input, pct),
            "setup_s": statistics.median(meter.scaled(a, b) for a, b in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        per_pass = [t.metrics() for t in tracers]
        values = {}
        for key in per_pass[0]:
            if key.endswith("_s"):
                values[key] = statistics.median(m[key] for m in per_pass)
            else:
                values[key] = per_pass[0][key]
                if any(m[key] != per_pass[0][key] for m in per_pass):
                    problems.append(f"{key} differs between traced passes")
        values["trace.overhead_share"] = median_times(traced_passes)[0] / median_times(plain)[0] - 1
        values["exhausted_share"] = sum(1 for rc, _, _ in first.values() if rc == 3) / len(first)
        values["realizer.nodes"] = 0
        if name == "exact-start0":
            values["realizer.nodes"], lines, census_problems = node_census(compnum, workload, first)
            info += lines
            problems += census_problems
        props = workloads.properties(name, compnum, workload, first, expected)
        info.append("properties " + json.dumps(props))
        values["workload.iso_repeat_share"] = props["iso_repeat_share"]
        units = {name: unit for name, unit, _ in tracing.METRICS}

    for line in info + problems:
        print(line)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, plain and traced, each in a fresh process."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for traced in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={traced}] {line}")
            try:
                child = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} trace={traced} printed no result (exit {proc.returncode})")
            result["correct"] &= child["correct"]
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            for key, m in child["metrics"].items():
                result["metrics"][f"{name}/{key}"] = m
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "compnum" / "__init__.py").is_file():
        print(f"error: no compnum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
