#!/usr/bin/env python3
"""Compare the solver trajectories of two dsmin source trees.

    python3 tools/compare_trajectories.py OLD_TREE NEW_TREE > comparison.json

Each tree is run in its own process (``--record TREE``), which imports dsmin
from ``TREE/src`` and the benchmark's workloads from ``TREE/benchmarks``.  It
builds every problem of seeds 1-3 of the three benchmark workloads from its
spec and runs the workload's listed solves in order, as ``benchmarks/run.py``
does, and records every event.  The comparison is printed as JSON.

Two trajectories are identical when their statuses, accepted points, every
event's point, label, acceptance and the bits of v, f, g and surrogate, the
certificate (point, value, neighbours, best descending neighbour) and the
predicted bound agree.  Call counters (per event and per solve) and wall times
are not compared; the calls of f and g are reported as old -> new totals per
workload and per solve label (modmod, supsub, modmod_budget, ...), so a
change to the counts shows which solves moved, and every solve whose calls of
f or g rose is listed under ``solves_with_more_calls`` with its old and new
counts.  The exit status is 1 when any trajectory differs.

    python3 tools/compare_trajectories.py --golden tests/data/trajectories.json

writes the golden summary of this tree's solves that ``tests/test_trajectories.py``
checks: per solve its status, final point, the bits of its final v, its
calls of f and g, and a sha256 of its events (counters included), its
certificate and its predicted bound.  Regenerate it only for a change that
moves trajectories or counts on purpose, and say which moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("dense_8k", "wide_n40", "subgrad_sfm")
SEEDS = (1, 2, 3)
COUNTERS = ("calls_f", "calls_g")


def _bits(value):
    """A float as its hex string, so that comparisons are bit for bit; other values as they are."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def record(tree: Path) -> list:
    """``record_solves`` with dsmin and the workloads imported from ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    return record_solves()


def record_solves() -> list:
    """Every solve of the workloads' instances, one dict per solve.

    dsmin and the benchmark's ``workloads`` are imported from ``sys.path``.
    """
    from dsmin import algorithms, problems
    import workloads as bench

    warnings.filterwarnings("ignore", message="domain too large to verify")
    solves = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for inst in bench.WORKLOADS[name](seed, False):
                problem, _ = problems.build_problem(inst.spec)
                for solve in inst.solves:
                    f0, g0 = problem.f.call_count, problem.g.call_count
                    report = algorithms.solve(problem, algorithms.SolveOptions(**solve.options))
                    cert, pred = report.certificate, report.predicted
                    solves.append({
                        "workload": name, "seed": seed, "instance": inst.name,
                        "solve": solve.label, "status": report.status,
                        "iterates": [list(r.point) for r in report.iterates],
                        "final_v": _bits(report.final_value),
                        "events": [{"t": r.t, "x": list(r.point), "v": _bits(r.v),
                                    "f": _bits(r.f_val), "g": _bits(r.g_val),
                                    "surrogate": _bits(r.surrogate), "accepted": r.accepted,
                                    "label": r.label, "calls_f": r.calls_f,
                                    "calls_g": r.calls_g} for r in report.events],
                        "certificate": None if cert is None else {
                            "point": list(cert.point), "value": _bits(cert.value),
                            "neighbors": [[list(p), _bits(v)] for p, v in cert.neighbors],
                            "best_descending": _bits(cert.best_descending)},
                        "predicted": None if pred is None else _bits(
                            [pred.bound, pred.big_m, pred.small_m]),
                        "calls_f": problem.f.call_count - f0,
                        "calls_g": problem.g.call_count - g0,
                    })
    return solves


def golden(solves: list) -> list:
    """The summary of each recorded solve that the golden file keeps."""
    return [{
        "solve": f'{s["workload"]}/seed{s["seed"]}/{s["instance"]}/{s["solve"]}',
        "status": s["status"], "final_point": s["iterates"][-1], "v": s["final_v"],
        "calls_f": s["calls_f"], "calls_g": s["calls_g"],
        "events_sha256": hashlib.sha256(json.dumps(
            [s["events"], s["certificate"], s["predicted"]], sort_keys=True).encode()).hexdigest(),
    } for s in solves]


def _without_counters(solve: dict) -> dict:
    out = {k: v for k, v in solve.items() if k not in COUNTERS}
    out["events"] = [{k: v for k, v in e.items() if k not in COUNTERS} for e in solve["events"]]
    return out


def compare(old: list, new: list) -> dict:
    if [(s["workload"], s["seed"], s["instance"], s["solve"]) for s in old] != \
            [(s["workload"], s["seed"], s["instance"], s["solve"]) for s in new]:
        raise SystemExit("the two trees ran different solves")
    differing = []
    rose = {}
    events = defaultdict(int)
    moved = defaultdict(int)
    # [old, new] call totals per workload and per solve label
    calls = {c: defaultdict(lambda: [0, 0]) for c in COUNTERS}
    by_solve = {c: defaultdict(lambda: [0, 0]) for c in COUNTERS}
    for a, b in zip(old, new):
        w = a["workload"]
        name = f'{w}/seed{a["seed"]}/{a["instance"]}/{a["solve"]}'
        if _without_counters(a) != _without_counters(b):
            differing.append(name)
        more = {c: [a[c], b[c]] for c in COUNTERS if b[c] > a[c]}
        if more:
            rose[name] = more
        events[w] += len(a["events"])
        moved[w] += sum(any(ea[c] != eb[c] for c in COUNTERS)
                        for ea, eb in zip(a["events"], b["events"]))
        for c in COUNTERS:
            for total in (calls[c][w], by_solve[c][a["solve"]]):
                total[0] += a[c]
                total[1] += b[c]
    return {
        "solves": len(old),
        "identical": "statuses, accepted points, every event's point, label, acceptance and "
                     "v/f/g/surrogate bits, certificate point, value, neighbours and best "
                     "descending neighbour, predicted bounds",
        "differing_solves": differing,
        "solves_with_more_calls": rose,
        "events": dict(events),
        "events_with_moved_counters": dict(moved),
        **{f"{c}_old_new": dict(calls[c]) for c in COUNTERS},
        **{f"{c}_old_new_by_solve": dict(by_solve[c]) for c in COUNTERS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    ap.add_argument("--record", type=Path, help="record one tree's solves as JSON on stdout")
    ap.add_argument("--golden", type=Path,
                    help="write this tree's golden summary to GOLDEN (a JSON file)")
    args = ap.parse_args(argv)

    if args.record is not None:
        json.dump(record(args.record.resolve()), sys.stdout)
        return 0
    if args.golden is not None:
        summary = golden(record(Path(__file__).resolve().parent.parent))
        # one solve per line, so that a regenerated file diffs by solve
        lines = ",\n".join(json.dumps(s) for s in summary)
        args.golden.write_text(f'{{"seeds": {list(SEEDS)}, "workloads": {json.dumps(WORKLOADS)}, '
                               f'"solves": [\n{lines}\n]}}\n')
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_TREE and NEW_TREE")
    runs = []
    for tree in args.trees:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--record", str(tree.resolve())]
        runs.append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                              text=True).stdout))
    result = {"seeds": list(SEEDS), "workloads": list(WORKLOADS), **compare(*runs)}
    print(json.dumps(result, indent=2))
    return 1 if result["differing_solves"] else 0


if __name__ == "__main__":
    sys.exit(main())
