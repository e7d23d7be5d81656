"""Golden minimum-norm-point results: every inner SFM of seeds 1-3 of ``subgrad_sfm``.

``tests/data/sfm_results.json`` holds, per inner solve of the benchmark's
``subgrad_sfm`` workload (one subsup step per solve, so one SFM each), the
``SfmResult`` minimizer, the bits of its value, its iteration count and the
bits of every ``duality_info`` entry.  The trajectory golden file sees only
the returned point and value; this one also pins how the solver got there.
A change that moves a result on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_sfm_results.py

and says which moved and why.  The bits depend on the numpy version.
"""

import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "sfm_results.json"
SEEDS = (1, 2, 3)


def record() -> list:
    """The result of every inner SFM of the workload's solves, in solve order.

    The benchmark's ``workloads`` module must be importable.
    """
    from dsmin import algorithms, problems
    import workloads

    results = []
    solve_sfm = algorithms.minimize_submodular

    def recording(*args, **kwargs):
        res = solve_sfm(*args, **kwargs)
        results.append({
            "solve": label, "minimizer": list(res.minimizer), "value": res.value.hex(),
            "iterations": res.iterations,
            "duality_info": {k: v.hex() for k, v in sorted(res.duality_info.items())}})
        return res

    warnings.filterwarnings("ignore", message="domain too large to verify")
    algorithms.minimize_submodular = recording
    try:
        for seed in SEEDS:
            for inst in workloads.WORKLOADS["subgrad_sfm"](seed, False):
                problem, _ = problems.build_problem(inst.spec)
                for solve in inst.solves:
                    label = f"seed{seed}/{inst.name}/{solve.label}"
                    algorithms.solve(problem, algorithms.SolveOptions(**solve.options))
    finally:
        algorithms.minimize_submodular = solve_sfm
    return results


def test_sfm_results_match_the_golden_file(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    want = json.loads(GOLDEN.read_text())
    got = record()
    assert [r["solve"] for r in got] == [r["solve"] for r in want]
    moved = [f'{a["solve"]}: {key} {b[key]} -> {a[key]}'
             for a, b in zip(got, want) for key in a if a[key] != b[key]]
    assert not moved, f"{len(moved)} fields moved, the first: " + "; ".join(moved[:5])


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "benchmarks"))
    lines = ",\n".join(json.dumps(r) for r in record())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
