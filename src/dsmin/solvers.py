"""Subproblem solvers: exact separable minimisation (plain and under a
cardinality budget), deterministic double greedy for lattice submodular
maximisation, and lattice submodular minimisation (brute force, or projected
subgradient on the extension with threshold rounding).

All exact solvers break ties lexicographically so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import Profile, chain_containing, greedy_extension
from .lattice import LatticeDomain, OracleFunction, SeparableFunction


def minimize_separable(s: SeparableFunction, domain: Optional[LatticeDomain] = None):
    """Exact global minimiser of a separable function in O(sum k_i).

    Each coordinate's prefix curve is scanned independently; ties pick the
    lowest level.
    """
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    point = s.argmin_tables()
    value = s.constant + sum(s.prefixes[i][point[i]] for i in range(d.n))
    return point, float(value)


def minimize_separable_cardinality(s: SeparableFunction, domain: Optional[LatticeDomain],
                                   budget: int):
    """Exact minimiser of a separable function subject to sum_i x_i <= budget.

    Dynamic program over (coordinate, remaining budget); ties resolve to the
    lexicographically smallest point.  A budget >= sum_i (k_i - 1) reduces to
    the unconstrained scan.
    """
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    total_levels = sum(k - 1 for k in d.sizes)
    b_cap = min(budget, total_levels)

    # best[i][b]: min over x_i..x_{n-1} with sum <= b of their prefix sums
    best = [np.zeros(b_cap + 1) for _ in range(d.n + 1)]
    for i in range(d.n - 1, -1, -1):
        pref = s.prefixes[i]
        for b in range(b_cap + 1):
            lmax = min(d.sizes[i] - 1, b)
            best[i][b] = min(pref[level] + best[i + 1][b - level]
                             for level in range(lmax + 1))

    point = []
    b = b_cap
    for i in range(d.n):
        pref = s.prefixes[i]
        lmax = min(d.sizes[i] - 1, b)
        target = best[i][b]
        for level in range(lmax + 1):
            if pref[level] + best[i + 1][b - level] == target:
                point.append(level)
                b -= level
                break
    return tuple(point), float(s.constant + best[0][b_cap])


def double_greedy_maximize(g: OracleFunction):
    """Deterministic double greedy for lattice submodular maximisation.

    Maintains a <= b with a = 0 and b = k_max initially.  For each
    coordinate in index order, every level between a_i and b_i is scored
    twice: as a raise of a (gain g(a with a_i -> level) - g(a)) and as a
    lowering of b (gain g(b with b_i -> level) - g(b)).  The better of the
    two best gains wins (both are >= 0 since staying put scores 0); on a
    tie the raise of a wins.  Ties among levels resolve to the level closest
    to the current value on each side.  Both points then agree on the
    coordinate.  Runs in O(sum k_i) oracle calls.

    For nonnegative submodular g the returned value is at least 1/3 of the
    maximum; the factor is inherited from the classical double greedy and
    checked empirically by the test suite.
    """
    d = g.domain
    a = np.zeros(d.n, dtype=np.int64)
    b = np.array(d.k_max, dtype=np.int64)
    for i in range(d.n):
        # one batch per coordinate: a, b, then a and b with coordinate i at
        # every level in (a_i, b_i] and [a_i, b_i) respectively
        ups = np.arange(a[i] + 1, b[i] + 1)
        downs = np.arange(a[i], b[i])
        points = np.vstack([a, b, np.repeat(a[None], ups.size, axis=0),
                            np.repeat(b[None], downs.size, axis=0)])
        points[2:2 + ups.size, i] = ups
        points[2 + ups.size:, i] = downs
        values = g.batch(points)
        up_gains = values[2:2 + ups.size] - values[0]
        down_gains = values[2 + ups.size:] - values[1]
        best_up_gain, best_up_level = 0.0, a[i]
        best_down_gain, best_down_level = 0.0, b[i]
        for level, gain in zip(ups.tolist(), up_gains.tolist()):
            if gain > best_up_gain:
                best_up_gain, best_up_level = gain, level
        for level, gain in zip(downs.tolist(), down_gains.tolist()):
            if gain > best_down_gain:
                best_down_gain, best_down_level = gain, level
        chosen = best_up_level if best_up_gain >= best_down_gain else best_down_level
        a[i] = chosen
        b[i] = chosen
    point = tuple(a.tolist())
    return point, g(point)


def brute_force_minimize(v: OracleFunction, cap=None):
    """Exact minimum of an arbitrary lattice function by enumeration.

    Ties resolve to the lexicographically smallest point.  Cap-guarded.
    """
    d = v.domain
    d.check_cap(cap, what="brute_force_minimize")
    best_point, best_value = None, math.inf
    for x in d.points():
        val = v(x)
        if val < best_value:
            best_point, best_value = x, val
    return best_point, best_value


def pav_nonincreasing(values) -> np.ndarray:
    """Euclidean projection onto non-increasing sequences (pool adjacent violators)."""
    values = np.asarray(values, dtype=float)
    sums = []
    counts = []
    for v in values:
        sums.append(v)
        counts.append(1)
        # non-increasing means each block mean must not exceed the previous
        while len(sums) >= 2 and sums[-1] / counts[-1] > sums[-2] / counts[-2]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    out = np.empty(values.size)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos:pos + c] = s / c
        pos += c
    return out


def project_profile(profile: Profile) -> Profile:
    """Project each coordinate onto non-increasing sequences, then clamp to [0, 1]."""
    levels = [np.clip(pav_nonincreasing(v), 0.0, 1.0) for v in profile.levels]
    return Profile(profile.domain, levels, validate=False)


@dataclass
class SubgradientOptions:
    iterations: int = 500
    step_scale: Optional[float] = None  # default: 0.5 * (observed range) / sqrt(r)
    round_each_iteration: bool = True


@dataclass
class SfmResult:
    minimizer: tuple
    value: float
    method: str
    iterations: int = 0
    duality_info: Optional[dict] = None


def _round_profile(f: OracleFunction, profile: Profile):
    """Best lattice point among the threshold roundings of ``profile``.

    Evaluates x(t) at every distinct breakpoint t, in one batch; the best of
    these never exceeds the extension value at profile, because the extension
    is an average of exactly these points.  Ties go to the smallest point.
    """
    points = profile.points_at(profile.breakpoints())
    # x(t) falls as t rises, so equal points are adjacent; keep the first of each run
    distinct = np.ones(len(points), dtype=bool)
    distinct[1:] = (points[1:] != points[:-1]).any(axis=1)
    points = points[distinct]
    best_point, best_value = None, math.inf
    for x, val in zip(points.tolist(), f.batch(points).tolist()):
        x = tuple(x)
        if val < best_value or (val == best_value and x < best_point):
            best_point, best_value = x, val
    return best_point, best_value


def minimize_submodular(f: OracleFunction, method: str = "brute_force",
                        options: Optional[SubgradientOptions] = None,
                        cap=None) -> SfmResult:
    """Minimise a lattice submodular function.

    method="brute_force": exact enumeration (cap-guarded).
    method="subgradient": projected subgradient on the extension.  The
    greedy weights at the current profile are a subgradient; steps are
    eta / sqrt(t); profiles are kept feasible by per-coordinate pool-
    adjacent-violators projection plus clamping.  The best profile seen is
    rounded over its thresholds, which cannot be worse than the extension
    value, so the reported rounding gap is >= 0 up to float noise.
    """
    d = f.domain
    if method in ("brute", "brute_force"):
        point, value = brute_force_minimize(f, cap=cap)
        return SfmResult(point, value, "brute_force")
    if method not in ("subgradient", "subgrad"):
        raise ValueError(f"unknown SFM method {method!r}")

    opts = options or SubgradientOptions()
    r = sum(k - 1 for k in d.sizes)
    if opts.step_scale is not None:
        step0 = float(opts.step_scale)
    else:
        walk = chain_containing(d, d.zero)
        vals = f.batch(walk.point_array())
        spread = float(vals.max() - vals.min())
        step0 = 0.5 * (spread if spread > 0 else 1.0) / math.sqrt(r)

    profile = Profile.constant(d, 0.5)
    best_ext = math.inf
    best_rho = profile
    best_point, best_value = None, math.inf
    for t in range(1, opts.iterations + 1):
        ext_val, weights = greedy_extension(f, profile)
        if ext_val < best_ext:
            best_ext, best_rho = ext_val, profile
        if opts.round_each_iteration:
            point, value = _round_profile(f, profile)
            if value < best_value:
                best_point, best_value = point, value
        step = step0 / math.sqrt(t)
        levels = [profile.levels[i] - step * weights.tables[i] for i in range(d.n)]
        profile = project_profile(Profile(d, levels, validate=False))

    point, value = _round_profile(f, best_rho)
    if value < best_value:
        best_point, best_value = point, value
    info = {"best_extension": best_ext, "rounding_gap": best_ext - best_value}
    return SfmResult(best_point, best_value, "subgradient",
                     iterations=opts.iterations, duality_info=info)
