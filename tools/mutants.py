#!/usr/bin/env python3
"""Re-run the claim that a test catches each of a list of planted faults.

    python3 tools/mutants.py

Each mutant replaces one line of a file under ``src/`` (text that occurs
exactly once there) and names the test expected to kill it.  First the named
tests run once on an unchanged copy of ``src/``, and all must pass.  Then each
mutant in turn is applied to a fresh temporary copy of ``src/``, and its named
test runs against it; if that test passes, ``tests/`` runs with ``-x``.  A
mutant is killed when a run fails.  One line per mutant reports killed or
survived, by what, and the time taken.

The exit status is 1 when a mutant survives that is not marked equivalent
(``equivalent`` says why no test can tell it from the code), and 2 when a
mutant no longer applies or a named test fails on the unchanged code.  pytest
runs in the temporary directory, so its caches and hypothesis's example
database stay out of the repository.  A change that adds a correctness claim
adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str   # under src/
    old: str    # one line, found exactly once in the file
    new: str
    test: str   # the pytest node id expected to kill it
    equivalent: Optional[str] = None  # why no test can kill it, if none can


MUTANTS = [
    Mutant("sweep-check-skipped", "dsmin/lattice.py",
           "        if not _finite_floats(values):", "        if False:",
           "tests/test_batch.py::test_a_separable_sweep_near_overflow_checks_every_row"),
    Mutant("difference-check-skipped", "dsmin/solvers.py",
           "    if not _finite_floats(values):", "    if False:",
           "tests/test_batch.py::"
           "test_double_greedy_of_g_and_m_refuses_what_the_composite_refuses"),
    Mutant("contains-truncates-fractions", "dsmin/lattice.py",
           "            self.require_batch([x])",
           "            self.require_batch([[int(v) for v in x]])",
           "tests/test_lattice.py::TestDomain::test_point_membership_and_shift"),
    Mutant("sfm-tol-1e-3", "dsmin/solvers.py", "SFM_TOL = 1e-9", "SFM_TOL = 1e-3",
           "tests/test_solvers.py::test_sfm_stops_at_its_documented_precision"),
    Mutant("corral-zero-carry", "dsmin/solvers.py",
           "                if carry > 0.0:", "                if carry >= 0.0:",
           "tests/test_solvers.py::test_isotonic_corral_picks_no_shift_whose_carry_is_zero"),
    Mutant("count-accepts-floats", "dsmin/solvers.py",
           "    if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
           "    if isinstance(value, bool):",
           "tests/test_algorithms.py::TestDescentAndTraces::test_bad_values_rejected_up_front"),
]


def _pytest(src: Path, work: Path, *args: str) -> bool:
    """Whether pytest passes on ``args`` with dsmin imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                         cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if run.returncode not in (0, 1):  # 1: tests failed; else no tests ran or pytest broke
        sys.exit(f"pytest exited {run.returncode} on {' '.join(args)}")
    return run.returncode == 0


def _copy_src(work: Path, mutant: Optional[Mutant] = None) -> Path:
    """A fresh copy of src/ under ``work``, with ``mutant`` applied."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            sys.exit(f"{mutant.name}: {mutant.old.strip()!r} is not found exactly once "
                     f"in src/{mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="dsmin-mutants-") as tmp:
        work = Path(tmp)
        tests = [str(ROOT / m.test) for m in MUTANTS]
        if not _pytest(_copy_src(work), work, *dict.fromkeys(tests)):
            print("a named test fails on the unchanged code", file=sys.stderr)
            return 2
        for m, test in zip(MUTANTS, tests):
            src = _copy_src(work, m)
            start = time.perf_counter()
            if not _pytest(src, work, test):
                verdict = "killed    by its named test"
            elif not _pytest(src, work, "-x", str(ROOT / "tests")):
                verdict = "killed    by tests/, not by its named test"
            elif m.equivalent:
                verdict = f"survived  (equivalent: {m.equivalent})"
            else:
                verdict = "SURVIVED"
                survivors.append(m.name)
            print(f"{m.name:30} {verdict}  {time.perf_counter() - start:6.1f} s", flush=True)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
