"""Seeded workloads of the dsmin benchmark and the independent checks on their results.

Each workload turns a seed into problem specs with ``problems.generate_ensemble``
and lists the solves to run on each problem.  The benchmark writes the specs to
JSON files before timing starts; the library only ever sees those files.

Result checks do not trust the library: ``Reference`` evaluates v = f - g
straight from the spec with numpy, so a wrong value, a false certificate or an
ascent step shows up even when the library's own oracles agree with
themselves.  See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from dsmin import problems

VALUE_TOL = 1e-9  # absolute, scaled by max(1, |v|); generated values are O(10^2) at most


@dataclass
class Solve:
    """Keyword arguments of one ``SolveOptions``; ``label`` names it in reports."""

    label: str
    options: dict


@dataclass
class Instance:
    name: str
    spec: dict
    solves: list
    reference: "Reference" = None
    global_min: Optional[float] = None  # brute-force minimum of v, small domains only


class Reference:
    """v = f - g evaluated from a generated spec, independently of dsmin."""

    def __init__(self, spec: dict):
        self.sizes = tuple(spec["sizes"])
        self.n = len(self.sizes)
        if "v" in spec:
            self._table = np.asarray(spec["v"]["values"], dtype=float)
            self._coverage = None
        elif spec["f"]["kind"] == "table":
            self._table = (np.asarray(spec["f"]["values"], dtype=float)
                           - np.asarray(spec["g"]["values"], dtype=float))
            self._coverage = None
        else:
            block = spec["g"]
            self._table = None
            self._coverage = (
                1.0 - np.asarray(block["probs"], dtype=float),       # miss[i, region]
                np.asarray(block["weights"], dtype=float),
                [float(block["tradeoff"]) * np.asarray(c, dtype=float)
                 for c in block["cost_tables"]],
            )

    def value(self, x) -> float:
        if self._table is not None:
            return float(self._table[np.ravel_multi_index(tuple(x), self.sizes)])
        miss, weights, costs = self._coverage
        arr = np.asarray(x, dtype=float).reshape(-1, 1)
        covered = float(weights @ (1.0 - np.prod(miss ** arr, axis=0)))
        return sum(float(costs[i][x[i]]) for i in range(self.n)) - covered

    def global_min(self) -> float:
        if self._table is not None:
            return float(self._table.min())
        miss, weights, costs = self._coverage
        grid = np.indices(self.sizes).reshape(self.n, -1).T          # (N, n), row-major
        undetected = np.prod(miss[None, :, :] ** grid[:, :, None], axis=1)
        cost = sum(costs[i][grid[:, i]] for i in range(self.n))
        return float(np.min(cost - (1.0 - undetected) @ weights))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


def check_solve(report, instance: Instance, options: dict) -> list:
    """Reasons the solve is wrong; empty when every check passes.

    Re-evaluates v from the spec at every accepted iterate and, for a
    certified solve at epsilon 0, at every feasible unit neighbour of the
    final point.
    """
    ref = instance.reference
    budget = options.get("budget")
    reasons = []
    values = [ref.value(rec.point) for rec in report.iterates]
    final = tuple(report.final_point)
    v_final = values[-1]
    if not _close(report.final_value, v_final):
        reasons.append(f"reported value {report.final_value!r} but f - g = {v_final!r}")
    for a, b in zip(values, values[1:]):
        if b > a + VALUE_TOL * max(1.0, abs(a)):
            reasons.append(f"accepted step raised v from {a!r} to {b!r}")
    if budget is not None and any(sum(rec.point) > budget for rec in report.iterates):
        reasons.append(f"an iterate violates the budget {budget}")
    if report.status == "certified_local_min" and options.get("epsilon", 0.0) == 0.0:
        for i, k in enumerate(ref.sizes):
            for delta in (1, -1):
                level = final[i] + delta
                if not 0 <= level < k:
                    continue
                nbr = final[:i] + (level,) + final[i + 1:]
                if budget is not None and sum(nbr) > budget:
                    continue
                v_nbr = ref.value(nbr)
                if v_nbr < v_final - VALUE_TOL * max(1.0, abs(v_final)):
                    reasons.append(f"certified {final} but neighbour {nbr} has v = {v_nbr!r}")
    if instance.global_min is not None and v_final < instance.global_min - VALUE_TOL * max(
            1.0, abs(instance.global_min)):
        reasons.append(f"value {v_final!r} below the brute-force minimum {instance.global_min!r}")
    return reasons


def coverage_dr_coeff(spec: dict) -> float:
    """Quadratic split coefficient of the separable cost side, from its curves.

    f = tradeoff * sum_i c_i(x_i), so its largest within-coordinate second
    difference is the largest second difference of the scaled curves.
    """
    block = spec["f"]
    tradeoff = float(block["tradeoff"])
    second = [float(np.max(np.diff(tradeoff * np.asarray(c, dtype=float), 2)))
              for c in block["cost_tables"] if len(c) >= 3]
    return max([0.0] + second)


# Sizes and counts keyed by ``smoke``.  The smoke sizes keep each workload's
# regime: brute force within the point cap, a domain above the cap (2^21
# points > 10^6) with no brute force, and subgradient SFM.
DENSE_SIZES = {False: (6,) * 5, True: (3,) * 3}
WIDE_SIZES = {False: (6,) * 40, True: (2,) * 21}
SUBGRAD_SIZES = {False: (5,) * 4, True: (3,) * 3}
WIDE_COUNT = {False: 24, True: 2}
SUBGRAD_COUNT = {False: 24, True: 2}

# MM iterations per wide solve.  Uncapped, these instances take from 2 to
# about 50 iterations, which would make the work in a run depend on the seed
# far more than on the code: over 30 instances the oracle calls per instance
# vary by 36 % uncapped, and by 9 % with all three solves capped at 4.
WIDE_MAX_ITERS = 4
WIDE_BUDGET = {False: 8, True: 4}   # binds: unconstrained solutions use 10 to 15 levels


def dense_8k(seed: int, smoke: bool) -> list:
    sizes = DENSE_SIZES[smoke]
    solves = [
        Solve("modmod", {"algorithm": "modmod"}),
        Solve("supsub", {"algorithm": "supsub"}),
        Solve("subsup", {"algorithm": "subsup"}),
        Solve("modmod_eps", {"algorithm": "modmod", "epsilon": 0.01}),
    ]
    instances = []
    for kind in ("coverage", "concave_of_linear_sums", "random_table_autosplit"):
        (spec,) = problems.generate_ensemble(kind, {"count": 1, "sizes": sizes}, seed=seed)
        instances.append(Instance(kind, spec, solves))
    return instances


def wide_n40(seed: int, smoke: bool) -> list:
    specs = problems.generate_ensemble(
        "coverage", {"count": WIDE_COUNT[smoke], "sizes": WIDE_SIZES[smoke], "regions": 8},
        seed=seed)
    budget = WIDE_BUDGET[smoke]
    instances = []
    for k, spec in enumerate(specs):
        coeff = coverage_dr_coeff(spec)
        solves = [
            Solve("modmod", {"algorithm": "modmod", "dr_coeff": coeff,
                             "max_iters": WIDE_MAX_ITERS}),
            Solve("supsub", {"algorithm": "supsub", "dr_coeff": coeff,
                             "max_iters": WIDE_MAX_ITERS}),
            Solve("modmod_budget", {"algorithm": "modmod", "dr_coeff": coeff,
                                    "budget": budget, "max_iters": WIDE_MAX_ITERS}),
        ]
        instances.append(Instance(f"coverage_{k}", spec, solves))
    return instances


def subgrad_sfm(seed: int, smoke: bool) -> list:
    specs = problems.generate_ensemble(
        "concave_of_linear_sums", {"count": SUBGRAD_COUNT[smoke], "sizes": SUBGRAD_SIZES[smoke]},
        seed=seed)
    # One subsup step per solve, so every solve runs exactly one inner SFM;
    # uncapped, a solve runs from 1 to 14 of them depending on the problem.
    solves = [Solve("subsup_subgradient", {"algorithm": "subsup", "sfm_method": "subgradient",
                                           "max_iters": 1})]
    return [Instance(f"concave_{k}", spec, solves) for k, spec in enumerate(specs)]


WORKLOADS = {"dense_8k": dense_8k, "wide_n40": wide_n40, "subgrad_sfm": subgrad_sfm}

BRUTE_FORCE_CAP = 10**6


def build(name: str, seed: int, smoke: bool = False) -> list:
    """The workload's instances with their references and brute-force minima."""
    instances = WORKLOADS[name](seed, smoke)
    for inst in instances:
        inst.reference = Reference(inst.spec)
        if math.prod(inst.spec["sizes"]) <= BRUTE_FORCE_CAP:
            inst.global_min = inst.reference.global_min()
    return instances
