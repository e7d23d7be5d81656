"""Golden trajectories: every solve of seeds 1-3 of the benchmark workloads.

``tests/data/trajectories.json`` holds, per solve, its status, final point,
the bits of its final v, its calls of f and g (the paper's cost model) and a
sha256 of its events (counters included), certificate and predicted bound,
as ``tools/compare_trajectories.py`` records them.  A change that moves a
trajectory or a count on purpose regenerates the file with

    python3 tools/compare_trajectories.py --golden tests/data/trajectories.json

and says which moved and why; ``tools/compare_trajectories.py OLD NEW``
explains a mismatch event by event.  The bits depend on the numpy version.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "trajectories.json"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_trajectories", ROOT / "tools" / "compare_trajectories.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_solves_match_the_golden_file(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tool = _tool()
    want = json.loads(GOLDEN.read_text())
    assert (want["seeds"], want["workloads"]) == (list(tool.SEEDS), list(tool.WORKLOADS))
    got = tool.golden(tool.record_solves())
    assert [s["solve"] for s in got] == [s["solve"] for s in want["solves"]]
    moved = [f'{a["solve"]}: {key} {b[key]} -> {a[key]}'
             for a, b in zip(got, want["solves"]) for key in a if a[key] != b[key]]
    assert not moved, f"{len(moved)} fields moved, the first: " + "; ".join(moved[:5])


def test_comparison_lists_the_solves_whose_calls_rose():
    tool = _tool()

    def solve(instance, calls_f, calls_g):
        return {"workload": "w", "seed": 1, "instance": instance, "solve": "modmod",
                "status": "s", "events": [], "calls_f": calls_f, "calls_g": calls_g}

    old = [solve("a", 10, 5), solve("b", 10, 5), solve("c", 10, 5)]
    new = [solve("a", 9, 5), solve("b", 11, 5), solve("c", 10, 6)]
    result = tool.compare(old, new)
    assert result["differing_solves"] == []
    assert result["solves_with_more_calls"] == {"w/seed1/b/modmod": {"calls_f": [10, 11]},
                                                "w/seed1/c/modmod": {"calls_g": [5, 6]}}
    assert tool.compare(old, old)["solves_with_more_calls"] == {}
