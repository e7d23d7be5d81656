#!/usr/bin/env python3
"""dsmin benchmark: run one seeded workload and print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload dense_8k --seed 1 --seconds 30 --trace 0

The workload's problems are generated from --seed and written to JSON files
before timing starts.  A run then repeats passes over them (parse every file
with ``problems.parse_problem``, then ``algorithms.solve`` every listed solve)
until another pass would overrun --seconds; it always makes at least one.
Timings are medians over passes, each pass summing the scaled CPU time of its
units (see UnitTimer).  Every solve is checked against values recomputed from
the spec (see workloads.check_solve).

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics of one traced pass (see spans.py), after untraced solves of the same
problems that give the tracing overhead, and writes the spans to .bench_out/.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; the lines before it are a
readable table of the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> unit.  JSON_METRICS go into the JSON result; the others are printed
# in the table only, because each is 0 or undefined on some workload
# (setup_calls when validation is skipped, exact_frac without a brute-force
# minimum, failed_frac on correct code), changes sign (value_mean), or is the
# unscaled CPU time behind setup_s and solve_s (see UnitTimer).
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solves_per_s": "1/s",
    "calls_f": "count",
    "calls_g": "count",
    "peak_rss_mb": "MB",
    "setup_calls": "count",
    "exact_frac": "fraction",
    "value_mean": "value",
    "failed_frac": "fraction",
    "setup_cpu_s": "s",
    "solve_cpu_s": "s",
}
JSON_METRICS = ("setup_s", "solve_s", "solves_per_s", "calls_f", "calls_g", "peak_rss_mb")

SPAN_UNITS = {"count": "count", "wall_s": "s", "self_s": "s", "calls_f": "count",
              "calls_g": "count"}
EXTRA_LAYER = {
    "lattice.oracle.us_per_call_f": "us",
    "lattice.oracle.us_per_call_g": "us",
    "lattice.oracle.distinct_frac": "fraction",
    "algorithms.report.calls_gap": "count",
    "bounds.dr_violation.calls_f_share": "fraction",
    "solvers.sfm.rounding_gap_max": "value",
    "trace.overhead_frac": "fraction",
}

# Timings are CPU seconds of this single-threaded process.  For dsmin's
# CPU-bound code that is its wall time on an idle host, without the time the
# process spends descheduled on a shared one.
CLOCK = time.process_time

# On a shared host the speed of a core drifts by 20 % and more within seconds.
# So each timed unit (one parse, one solve) is scaled by PROBE_NOMINAL_S over
# the mean time of a fixed probe loop, sampled around and inside the unit (see
# UnitTimer).  Timings are then CPU seconds at the speed where the probe takes
# PROBE_NOMINAL_S, about its mean on the host described in WORKLOADS.md.
PROBE_LOOPS = 500
PROBE_NOMINAL_S = 0.00347
ENDPOINT_PROBES = 4         # probes just before and just after each unit
TICK_S = 0.1                # wall seconds between probes inside a unit
SETUP_SHARE = 0.1           # share of --seconds spent on extra setup-only repetitions
ORACLE_LOOP_POINTS = 1000   # points per direct oracle-timing loop
ORACLE_LOOP_REPEATS = 5
ORACLE_LOOP_PROBLEMS = 4


def speed_probe() -> float:
    """CPU time of a fixed loop shaped like an oracle call: a tuple and small numpy operations."""
    base = np.linspace(0.2, 0.8, 5)
    t0 = CLOCK()
    for i in range(PROBE_LOOPS):
        x = tuple((i + k) % 5 for k in range(5))
        float(np.prod(base ** np.asarray(x, dtype=float)))
    return CLOCK() - t0


class UnitTimer:
    """CPU time of consecutive units of work, raw and scaled by the host's speed.

    The speed is the mean time of speed_probe() over probes run just before
    and just after the unit and, from a wall-clock interval timer (SIGALRM),
    every TICK_S inside it.  A single parse can take 15 s, and probes at its
    ends alone miss the drift within it.  The CPU time of the probes inside a
    unit is taken out of the unit's time.  (A CPU-time timer would not do: Linux
    then reads the process CPU clock in whole ticks.)
    """

    def __init__(self):
        self._samples = []
        self._probe_cpu = 0.0
        self._t0 = 0.0
        self._before = [speed_probe() for _ in range(ENDPOINT_PROBES)]
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = CLOCK()
        self._samples.append(speed_probe())
        self._probe_cpu += CLOCK() - t0

    def start(self):
        self._samples = []
        self._probe_cpu = 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = CLOCK()

    def stop(self):
        """(raw, scaled) CPU seconds since start(); probes again for the next unit."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = CLOCK() - self._t0 - self._probe_cpu
        after = [speed_probe() for _ in range(ENDPOINT_PROBES)]
        speed = statistics.fmean(self._before + self._samples + after)
        self._before = after
        return raw, raw * PROBE_NOMINAL_S / speed


def import_library():
    """Import dsmin from this checkout's sources and nowhere else."""
    if not (SRC / "dsmin" / "__init__.py").is_file():
        sys.exit(f"benchmark: dsmin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dsmin

    if Path(dsmin.__file__).resolve().parent != SRC / "dsmin":
        sys.exit(f"benchmark: imported dsmin from {dsmin.__file__}, not {SRC}")
    return dsmin


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, where: str, reason: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{where}: {reason}")


@dataclass
class Setup:
    seconds: float             # scaled, see UnitTimer
    cpu_seconds: float
    calls: int                 # f and g calls made while parsing
    wall: float                # including the probes


@dataclass
class SolveResult:
    seconds: float             # scaled, see UnitTimer
    cpu_seconds: float
    calls_f: int
    calls_g: int
    value: float               # reported final value
    reported_calls_f: int      # calls_f of the report's last event
    global_min: Optional[float]
    verified: bool             # passed every check of workloads.check_solve


class Bench:
    def __init__(self, dsmin, workloads, instances, paths, tally):
        self.dsmin = dsmin
        self.checks = workloads
        self.instances = instances
        self.paths = paths
        self.tally = tally
        self.timer = UnitTimer()

    def parse_all(self, tracer=None):
        """Parse every problem file: (problems, Setup)."""
        wall0 = time.perf_counter()
        problems = []
        out = Setup(0.0, 0.0, 0, 0.0)
        for path in self.paths:
            if tracer is not None:
                tracer.begin_parse()
            self.timer.start()
            problem, _ = self.dsmin.problems.parse_problem(path)
            raw, scaled = self.timer.stop()
            if tracer is not None:
                tracer.end_parse(problem)
            out.seconds += scaled
            out.cpu_seconds += raw
            out.calls += problem.f.call_count + problem.g.call_count
            problems.append(problem)
        out.wall = time.perf_counter() - wall0
        return problems, out

    def solve_all(self, parsed, tracer=None, stop_after=math.inf):
        """Run the listed solves of every problem; check each result after timing it.

        No solve starts once ``stop_after`` wall seconds have passed.
        """
        results = []
        start = time.perf_counter()
        for inst, problem in zip(self.instances, parsed):
            for solve in inst.solves:
                if time.perf_counter() - start > stop_after:
                    return results
                where = f"{inst.name}/{solve.label}"
                self.tally.attempted += 1
                opts = self.dsmin.algorithms.SolveOptions(**solve.options)
                f0, g0 = problem.f.call_count, problem.g.call_count
                if tracer is not None:
                    tracer.begin_solve(problem, solve.label)
                self.timer.start()
                try:
                    report = self.dsmin.algorithms.solve(problem, opts)
                except Exception:  # a raising solve counts as failed; the run goes on
                    self.timer.stop()
                    self.tally.fail(where, traceback.format_exc(limit=3))
                    continue
                raw, seconds = self.timer.stop()
                calls_f = problem.f.call_count - f0
                calls_g = problem.g.call_count - g0
                if tracer is not None:
                    tracer.end_solve(problem, calls_f + calls_g)
                reasons = self.checks.check_solve(report, inst, solve.options)
                if reasons:
                    self.tally.fail(where, "; ".join(reasons))
                # keep figures, not reports: certificates hold O(n) chains of points
                results.append(SolveResult(seconds, raw, calls_f, calls_g, report.final_value,
                                           report.events[-1].calls_f, inst.global_min,
                                           not reasons))
        return results


def run_until(seconds: float, one_pass):
    """Call one_pass() once, then again while another call would end within ``seconds``."""
    start = time.perf_counter()
    outs = []
    while True:
        t0 = time.perf_counter()
        outs.append(one_pass())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return outs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(bench: Bench, seconds: float) -> dict:
    def one_pass():
        problems, setup = bench.parse_all()
        return setup, bench.solve_all(problems)

    passes = run_until(seconds * (1 - SETUP_SHARE), one_pass)
    setups = [p[0] for p in passes]
    # cheap set-ups are repeated on their own, so that their median is steady
    reps = int(SETUP_SHARE * seconds / statistics.median(s.wall for s in setups))
    setups += [bench.parse_all()[1] for _ in range(reps)]
    setup = [s.seconds for s in setups]
    solve = [sum(r.seconds for r in p[1]) for p in passes]
    # every pass repeats the same deterministic work, so counts come from the first
    first = passes[0][1]
    values = [r.value for r in first]
    exact = [abs(r.value - r.global_min) <= 1e-9
             for r in first if r.global_min is not None]
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(solve),
        "solves_per_s": statistics.median(
            sum(r.verified for r in p[1]) / (a + b) for p, a, b in zip(passes, setup, solve)),
        "calls_f": sum(r.calls_f for r in first),
        "calls_g": sum(r.calls_g for r in first),
        "peak_rss_mb": peak_rss_mb(),
        "setup_calls": setups[0].calls,
        "exact_frac": sum(exact) / len(exact) if exact else math.nan,
        "value_mean": statistics.fmean(values) if values else math.nan,
        "failed_frac": bench.tally.failed / bench.tally.attempted,
        "setup_cpu_s": statistics.median(s.cpu_seconds for s in setups),
        "solve_cpu_s": statistics.median(sum(r.cpu_seconds for r in p[1]) for p in passes),
        "passes": len(passes),
    }


def oracle_us_per_call(parsed, seed: int):
    """Mean over problems of the median time of a fixed loop of direct f and g calls."""
    rng = np.random.default_rng(seed)
    per_f, per_g = [], []
    for problem in parsed[:ORACLE_LOOP_PROBLEMS]:
        sizes = problem.domain.sizes
        points = [tuple(int(v) for v in row)
                  for row in rng.integers(0, sizes, size=(ORACLE_LOOP_POINTS, len(sizes)))]
        for fn, out in ((problem.f, per_f), (problem.g, per_g)):
            times = []
            for _ in range(ORACLE_LOOP_REPEATS):
                t0 = time.perf_counter()
                for x in points:
                    fn(x)
                times.append(time.perf_counter() - t0)
            out.append(statistics.median(times) / ORACLE_LOOP_POINTS * 1e6)
    return statistics.fmean(per_f), statistics.fmean(per_g)


def per_layer(bench: Bench, spans, seconds: float, seed: int, out_path: Path) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        parsed, _ = bench.parse_all(tracer)
    finally:
        tracer.uninstall()
    us_f, us_g = oracle_us_per_call(parsed, seed)

    # untraced solves of the same problems, for the overhead baseline; on
    # workloads with long solves only the first ones fit in the time allowed
    untraced = bench.solve_all(parsed, stop_after=seconds / 4)

    tracer.install()
    try:
        results = bench.solve_all(parsed, tracer)
    finally:
        tracer.uninstall()
    tracer.finish()
    tracer.write(out_path)

    metrics = tracer.layer_metrics()
    metrics.update({
        "lattice.oracle.us_per_call_f": us_f,
        "lattice.oracle.us_per_call_g": us_g,
        "lattice.oracle.distinct_frac": tracer.distinct / max(tracer.solve_calls, 1),
        "algorithms.report.calls_gap": sum(r.calls_f - r.reported_calls_f for r in results),
        "bounds.dr_violation.calls_f_share": tracer.dr_share(),
        "solvers.sfm.rounding_gap_max": max(tracer.rounding_gaps, default=0.0),
        "trace.overhead_frac": (sum(r.seconds for r in results[:len(untraced)])
                                / sum(r.seconds for r in untraced) - 1.0),
    })
    return metrics


def layer_names(spans) -> dict:
    names = {f"{span}.{fld}": SPAN_UNITS[fld] for span in spans.TRACED for fld in spans.SPAN_FIELDS}
    names.update(EXTRA_LAYER)
    return names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    dsmin = import_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    # above the point cap build_problem warns that it trusts the declaration
    warnings.filterwarnings("ignore", message="domain too large to verify")

    instances = workloads.build(args.workload, args.seed, args.smoke)
    work = Path.cwd() / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        paths = []
        for k, inst in enumerate(instances):
            path = tmp / f"{k:03d}_{inst.name}.json"
            dsmin.problems.write_problem(inst.spec, path)
            paths.append(path)
        tally = Tally()
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the library's collections
        bench = Bench(dsmin, workloads, instances, paths, tally)
        if args.trace:
            out = Path.cwd() / ".bench_out"
            out.mkdir(exist_ok=True)
            span_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = per_layer(bench, spans, args.seconds, args.seed, span_file)
            units = layer_names(spans)
            shown = units
        else:
            values = end_to_end(bench, args.seconds)
            units = {name: END_TO_END[name] for name in JSON_METRICS}
            shown = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still has its files there

    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# dsmin benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} solves={tally.attempted} failed={tally.failed}"
          + (f" passes={values['passes']}" if "passes" in values else ""))
    for name, unit in shown.items():
        print(f"{name:<44} {values[name]:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
