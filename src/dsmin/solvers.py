"""Subproblem solvers: exact separable minimisation (plain and under a
cardinality budget), deterministic double greedy for lattice submodular
maximisation, and lattice submodular minimisation (brute force, or
Wolfe's minimum-norm-point algorithm with a certified gap and threshold
rounding).

All exact solvers break ties lexicographically so runs are reproducible.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import Profile, _gains_along, _greedy_walk, _thresholds
from .lattice import (LatticeDomain, OracleFunction, SeparableFunction, _finite_floats,
                      _same_domain, _Tabulation)


def minimize_separable(s: SeparableFunction, domain: Optional[LatticeDomain] = None):
    """Exact global minimiser of a separable function in O(sum k_i).

    Each coordinate's prefix curve is scanned independently; ties pick the
    lowest level.
    """
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    point = s.argmin_tables()
    return point, s._value_at(np.array(point))  # a domain point: not validated again


def minimize_separable_cardinality(s: SeparableFunction, domain: Optional[LatticeDomain],
                                   budget: int):
    """Exact minimiser of a separable function subject to sum_i x_i <= budget.

    Dynamic program over (coordinate, remaining budget); ties resolve to the
    lexicographically smallest point.  A budget >= sum_i (k_i - 1) reduces to
    the unconstrained scan.

    A coordinate whose prefix curve is >= 0 at every level stays at level 0
    and takes no step of the program.  That is exact: the best sum of the
    later coordinates does not increase with the budget, and rounding is
    monotone, so level 0 ties or beats every other level at every budget and
    is the lowest; and 0.0 + best is best bit for bit, as best is never
    -0.0.

    A curve holding NaN or +-inf, or curves whose lowest levels could sum
    past the float range (the 1e300 check below), raise a ValueError: a -inf
    sum would meet the +inf of the grid's padding or of a level above the
    budget as NaN, which argmin picks, so the point could leave the domain
    or the budget.
    """
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    b_cap = min(budget, d._rises.size)

    grid = s._prefix_grid
    lows = grid.min(axis=1)
    # Summed as Python floats, which overflow to inf without a warning; a NaN total fails.
    if not (np.isfinite(s._flat_prefixes).all() and -sum(lows.tolist()) <= 1e300):
        raise ValueError(f"{s!r}: the budget program needs finite prefix curves whose "
                         "lowest levels sum within the float range")
    kept = np.flatnonzero(lows < 0.0)
    grid = grid[kept]

    # One min-plus step per kept coordinate, from the last: with best[b] the
    # minimum over the later ones of their prefix sums under sum <= b,
    # totals[b, l] is that for budget b - l plus this coordinate's prefix at
    # level l.  A level above the top or the budget meets +inf, from the
    # padding of the prefix grid or from best[b_cap + 1].  argmin takes the
    # lowest minimising level.
    left = np.arange(b_cap + 1)[:, None] - np.arange(grid.shape[1])[None, :]
    left[left < 0] = b_cap + 1
    rows = np.arange(b_cap + 1)
    best = np.zeros(b_cap + 2)
    best[-1] = np.inf
    choice = np.empty((kept.size, b_cap + 1), dtype=np.int64)
    for j in range(kept.size - 1, -1, -1):
        totals = grid[j] + best[left]
        choice[j] = totals.argmin(axis=1)
        best[:-1] = totals[rows, choice[j]]

    # the lowest level first, coordinate by coordinate: the lexicographically smallest minimiser
    point = [0] * d.n
    b = b_cap
    for i, levels in zip(kept.tolist(), choice.tolist()):
        point[i] = levels[b]
        b -= levels[b]
    return tuple(point), float(s.constant + best[b_cap])


def double_greedy_maximize(g: OracleFunction, m: Optional[SeparableFunction] = None):
    """Deterministic double greedy for lattice submodular maximisation of g - m.

    ``m`` is an optional separable function; without it the objective h is
    g, with it h = g - m.  Maintains a <= b with a = 0 and b = k_max
    initially.  For each coordinate in index order, every level between a_i
    and b_i is scored twice: as a raise of a (gain h(a with a_i -> level) -
    h(a)) and as a lowering of b (gain h(b with b_i -> level) - h(b)).  The
    better of the two best gains wins (both are >= 0 since staying put
    scores 0); on a tie the raise of a wins.  Ties among levels resolve to
    the lowest tied level on both sides: the one closest to a_i when raising
    a, but the one farthest from b_i when lowering b.  Both points then
    agree on the coordinate.

    g is called exactly 2 + 2 * sum_i (k_i - 1) times: at a and b, then at
    the 2(k_i - 1) level rows of each coordinate, read from g's sweep
    (``lattice._Sweep``).  The new a and b are rows or unchanged, so their
    values are carried forward, and the returned value is the carried h(a).
    m is never called: its type and domain are checked before g is called,
    and its values are read from its prefix tables and its sweep.

    Every value is checked: g refuses a non-finite value of its own before
    anything is subtracted, m refuses one of its own, and a non-finite value
    of g - m raises a ValueError naming g and m.  A coordinate's rows are
    compared as Python floats: the gains one by one, and the first best
    level on each side by ``max`` and ``index``.

    The a-rows, and so the returned value, are h's batch values bit for bit.
    A coverage or separable sweep, g's or m's, takes the later coordinates'
    top levels of a b-row as one suffix sum or product, so a b-side gain may
    differ from the batch one in the last bit: a choice could differ only
    between gains equal to within rounding.  Any other oracle's rows, a
    composite's included, are its batch values.

    For nonnegative submodular h the returned value is at least 1/3 of the
    maximum, the factor of the classical double greedy; the test suite
    checks it on random instances.
    """
    if m is not None:
        if not isinstance(m, SeparableFunction):
            raise TypeError(f"m must be a SeparableFunction, got {type(m).__name__}")
        _same_domain(g, m)
    return _double_greedy(g, m, g._sweep())


def _double_greedy(g: OracleFunction, m: Optional[SeparableFunction], sweep):
    """``double_greedy_maximize(g, m)`` reading g's rows from ``sweep``, m's type unchecked.

    ``sweep`` is a sweep of g at its first coordinate: g's own, or one that
    reads rows an earlier run evaluated (``lattice._RememberedSweep``).
    """
    d = g.domain
    ends = np.stack([np.zeros(d.n, dtype=np.int64), d._k_max])
    ga, gb = g._batch(ends).tolist()
    if m is not None:
        m_sweep = m._sweep()
        ga, gb = _difference(g, m, [ga, gb], m.values_at(ends).tolist(), lambda: ends)
    # at coordinate i, a_i = 0 and b_i = top: the a-rows raise a_i to 1..top,
    # the b-rows lower b_i to 0..top - 1
    for top, rows in zip(d.k_max, d._sweep_rows[0]):
        values = sweep.rows()
        if m is not None:
            values = _difference(g, m, values, m_sweep._values(rows), sweep.points)
        up_gains = [v - ga for v in values[:top]]
        down_gains = [v - gb for v in values[top:]]
        # the first best level on each side; a side whose best gain is not positive stays put
        up_best, down_best = max(up_gains), max(down_gains)
        if max(up_best, 0.0) >= max(down_best, 0.0):
            chosen = up_gains.index(up_best) + 1 if up_best > 0 else 0
        else:
            chosen = down_gains.index(down_best)
        if chosen != 0:
            ga = values[chosen - 1]
        if chosen != top:
            gb = values[top + chosen]
        sweep.choose(chosen)
        if m is not None:
            m_sweep.choose(chosen)
    return tuple(sweep.chosen), ga


def _difference(g: OracleFunction, m: SeparableFunction, g_values: list, m_values: list,
                points) -> list:
    """g's values less m's, as Python floats, checked by ``lattice._finite_floats``.

    ``points()`` gives the points of the values.  A non-finite value of m is
    refused by m; one of the difference raises a ValueError naming g and m.
    """
    values = [v - w for v, w in zip(g_values, m_values)]
    if not _finite_floats(values):
        X = points()
        if not _finite_floats(m_values):
            m._refuse(m_values, X)
        k = next(k for k, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"{g!r} - {m!r} returned {values[k]} at point {tuple(X[k].tolist())}")
    return values


def brute_force_minimize(v: OracleFunction, cap=None):
    """Exact minimum of an arbitrary lattice function by enumeration.

    Ties resolve to the lexicographically smallest point.  Cap-guarded.
    """
    table = _Tabulation(v, cap, "brute_force_minimize")
    value, wit, _ = table.first_extremum([((-1, None), table.values)], "minimum", lowest=True)
    return wit.point, value


def pav_nonincreasing(values) -> np.ndarray:
    """Euclidean projection onto non-increasing sequences (pool adjacent violators)."""
    return np.array(_pav(np.asarray(values, dtype=float).tolist()), dtype=float)


def _pav(values: list) -> list:
    """``pav_nonincreasing`` over Python floats, which add and divide as numpy's doubles do."""
    out = []
    for s, c in zip(*_pav_blocks(values)):
        out += [s / c] * c
    return out


def _pav_blocks(values: list):
    """The pooled blocks of ``_pav``: their sums and their lengths, in order."""
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
    return sums, counts


def project_profile(profile: Profile) -> Profile:
    """Project each coordinate onto non-increasing sequences, then clamp to [0, 1]."""
    levels = [np.clip(pav_nonincreasing(v), 0.0, 1.0) for v in profile.levels]
    return Profile(profile.domain, levels, validate=False)


SFM_METHODS = ("brute", "brute_force", "subgradient", "subgrad")

# relative certified gap at which the minimum-norm-point SFM stops
SFM_TOL = 1e-9
# corral weights at or below this are zero; also the relative slack of its stopping tests
CORRAL_TOL = 1e-12


def _check_count(name: str, value, low: int):
    """Refuse ``value``, naming it ``name``, unless it is an integer >= ``low``: numpy
    integers pass; booleans and floats, integral or not, do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass
class SubgradientOptions:
    """Options of minimize_submodular(method="subgradient"), the certified
    minimum-norm-point solver.  ``iterations``, an integer >= 1, caps its
    iterations: t of them make at most (t + 1)(r + 1) oracle calls, with
    r = sum_i (k_i - 1).
    """
    iterations: int = 500

    def __post_init__(self):
        _check_count("SFM iterations", self.iterations, 1)


@dataclass
class SfmResult:
    minimizer: tuple
    value: float
    method: str
    iterations: int = 0
    duality_info: Optional[dict] = None


def _round_and_extend(f: OracleFunction, weights: np.ndarray, points: np.ndarray):
    """The best threshold rounding of a profile, read off a greedy walk.

    ``weights`` are the profile's entries in the order of ``points``, the walk
    (``extension._greedy_walk``) at a profile whose entries sort as these do:
    the profile itself, or rho for rho's rounding profile.  So at every
    breakpoint t (the distinct entries in (0, 1] and 1.0, checked as
    ``Profile.points_at`` checks thresholds) the point x(t) is the walk's row
    sum(x(t)), and distinct breakpoints give distinct rows.  Those rows are
    evaluated in one batch.  The best never exceeds the extension value, an
    average of exactly these points: x(t) is x(t_k) on (t_{k-1}, t_k]
    (t_0 = 0), so it is the sum of those lengths times the values.  Ties go
    to the smallest point.

    Returns (rows, values, point, value, extension value).
    """
    vals = np.append(weights[::-1], 1.0)
    # the first of each run of equal values in (0, 1]: the breakpoints, ascending
    first = vals > 0.0
    first[1:] &= vals[1:] != vals[:-1]
    first = np.flatnonzero(first)
    ts = _thresholds(vals[first])
    rows = vals.size - 1 - first  # the count of entries >= t
    values = f._batch(points[rows])
    lengths = ts - np.append(0.0, ts[:-1])
    # x(t) falls as t rises, also lexicographically, so the smallest tied point is the last
    k = len(rows) - 1 - int(np.argmin(values[::-1]))
    return rows, values, tuple(points[rows[k]].tolist()), float(values[k]), float(lengths @ values)


def _finish_walk(f: OracleFunction, walk: np.ndarray, points: np.ndarray, rows: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """The gains along the walk (``greedy_extension``'s weights), given its ``rows`` ``values``.

    Evaluates the other rows of ``points`` in one batch.  A value does not
    depend on its batch, so the gains are those of ``greedy_extension`` at
    the walk's profile bit for bit.
    """
    walk_values = np.empty(len(points))
    walk_values[rows] = values
    rest = np.ones(len(points), dtype=bool)
    rest[rows] = False
    walk_values[rest] = f._batch(points[rest])
    return _gains_along(walk, walk_values)


def minimize_submodular(f: OracleFunction, method: str = "brute_force",
                        options: Optional[SubgradientOptions] = None,
                        cap=None) -> SfmResult:
    """Minimise a lattice submodular function.

    method="brute_force" (or "brute"): exact enumeration (cap-guarded).

    method="subgradient" (or "subgrad"): Wolfe's minimum-norm-point
    algorithm, a fully corrective conditional-gradient method (Fujishige and
    Isotani 2011; Bach, Math. Prog. 2019, section 5).  Seen as a set function
    on the ideals of its level chains, f has the base polyhedron P + D: P is
    the hull of the greedy weight vectors of greedy_extension, D the cone of
    level shifts e_(i,l+1) - e_(i,l).  The solver keeps z, the point of least
    norm in the hull of a few atoms (greedy vectors with convex weights,
    level shifts with non-negative weights), and w, its part in P.  The
    primal profile is rho = PAV(-z), the projection of -z onto non-increasing
    levels; the linear oracle is greedy_extension at rho.  After each new
    atom, Wolfe's minor cycles find the least-norm point of the atoms' hull
    exactly and drop the atoms whose weight reaches zero.  While the atoms
    hold one greedy vector w, the least-norm point of w + D is found in one
    step instead: z is the non-decreasing isotonic regression of w in each
    coordinate, and its atoms are w and the shifts inside its pooled blocks
    (``_isotonic_corral``).  Every threshold rounding of rho is a point of
    the greedy walk at rho, so the rounding evaluates the walk's rows first,
    and the rest of the walk only if the solver goes on: a run of t
    iterations makes at most (t + 1)(r + 1) oracle calls, r the entry count.

    w gives a separable minorant f(0) + sum_i prefix(w_i) of a submodular f;
    its minimum (O(sum k_i), no oracle calls) is a certified lower bound.  The
    upper bound is the best threshold rounding of rho over its positive
    levels.  At the least-norm point of P + D the rounding {rho > 0} attains
    the lower bound, so the gap closes.  The solver stops once
    upper - lower <= SFM_TOL * max(1, |upper|), when no greedy vector lowers
    |z|, or after ``options.iterations`` bound evaluations.
    ``duality_info`` holds ``lower_bound``, ``gap`` (upper - lower, >= 0),
    ``best_extension`` (the lowest extension value at a rounding profile
    rho / max(rho), clamped at 0) and ``rounding_gap`` (best_extension - value,
    >= 0 up to rounding).  The bound and the gap assume f is submodular; for
    other inputs they certify nothing.
    """
    if method in ("brute", "brute_force"):
        point, value = brute_force_minimize(f, cap=cap)
        return SfmResult(point, value, "brute_force")
    if method not in SFM_METHODS:
        raise ValueError(f"unknown SFM method {method!r}")
    return _min_norm_point_sfm(f, (options or SubgradientOptions()).iterations)


def _min_norm_point_sfm(f: OracleFunction, budget: int) -> SfmResult:
    d = f.domain
    shifts = _level_shifts(d)
    lows = shifts.argmin(axis=1).tolist()  # shift k is e_(lows[k] + 1) - e_(lows[k])
    segments = _segments(d)
    # the walk at the flat profile; its extension value is not needed
    _, walk, points = _greedy_walk(Profile._of_flat(d, np.full(d._rises.size, 0.5)))
    values = f._batch(points)
    f0 = float(values[0])
    atoms = _gains_along(walk, values)[None, :]  # one per row
    greedy = np.ones(1, dtype=bool)            # greedy vector (True) or level shift
    weights = np.ones(1)
    best_point, best_value, best_ext, lower = None, math.inf, math.inf, -math.inf
    for iteration in range(1, budget + 1):
        if np.count_nonzero(greedy) == 1:
            # the least-norm point of w + cone(D) and its corral, in one step
            w = atoms[greedy][0]
            rho, picked, mu = _isotonic_corral(segments, w.tolist())
            rho = np.array(rho)
            z = -rho
            atoms = np.concatenate((w[None, :], shifts[picked]))
            greedy = np.zeros(len(atoms), dtype=bool)
            greedy[0] = True
            weights = np.array([1.0] + mu)
        else:
            # level shifts first: they cost no oracle calls and make z
            # non-decreasing along every coordinate
            z = weights @ atoms
            while True:
                zs = z.tolist()
                # shifts @ z: each row picks one difference of z, rounded once
                slack = [zs[p + 1] - zs[p] for p in lows]
                if not (slack and min(slack) < -CORRAL_TOL * max(1.0, max(map(abs, zs)))):
                    break
                atoms, greedy, weights = _add_atom(atoms, greedy, weights,
                                                   shifts[slack.index(min(slack))], False)
                z = weights @ atoms
            rho = np.array(_pav_levels(segments, [-v for v in zs]))
        # greedy_extension's walk at rho holds every threshold rounding of rho
        # (rho may leave [0, 1]: the walk reads only the order of the entries)
        order, walk, points = _greedy_walk(Profile._of_flat(d, rho))
        rows, values, point, value, ext = _round_and_extend(f, _rounded(rho[order]), points)
        if value < best_value:
            best_point, best_value = point, value
        best_ext = min(best_ext, ext)
        w = (weights[greedy] @ atoms[greedy]).tolist()
        lower = max(lower, f0 + _separable_minimum(segments, w))
        if best_value - lower <= SFM_TOL * max(1.0, abs(best_value)) or iteration == budget:
            break
        vertex = _finish_walk(f, walk, points, rows, values)
        if z @ z - z @ vertex <= CORRAL_TOL * max(1.0, z @ z):
            break  # no greedy vector lowers |z|: z is the least-norm point
        atoms, greedy, weights = _add_atom(atoms, greedy, weights, vertex, True)
    lower = min(lower, best_value)  # a lower bound never exceeds a value of f
    info = {"best_extension": best_ext, "rounding_gap": best_ext - best_value,
            "lower_bound": lower, "gap": best_value - lower}
    return SfmResult(best_point, best_value, "subgradient",
                     iterations=iteration, duality_info=info)


def _isotonic_corral(segments: list, w: list):
    """The least-norm point of w + cone(D) and a corral that spans it, in closed form.

    By Moreau's decomposition, the least-norm point of w + cone(D) is z,
    each coordinate's non-decreasing isotonic regression of w (Bach, Math.
    Prog. 2019, section 5): rho = -z is ``_pav_levels(segments, -w)`` bit
    for bit.  z = w + sum_l mu_l (e_(l+1) - e_l) with mu_l = prefix_l(w) -
    prefix_l(z), the running sums over a coordinate's levels up to l: zero
    between two pooled blocks of z, positive inside one in exact arithmetic,
    and summed here from the block's start.  Every shift with mu_l > 0 lies
    inside a block, so it is normal to z.

    Returns rho, the indices in ``_level_shifts`` order of the shifts with
    mu_l > 0, and their mu_l, as lists.
    """
    rho, picked, mu = [], [], []
    first = 0  # index of the coordinate's first shift
    for i, j in segments:
        start = i
        for s, c in zip(*_pav_blocks([-v for v in w[i:j]])):
            mean = s / c
            rho += [mean] * c
            carry = 0.0
            for p in range(start, start + c - 1):
                carry += w[p] + mean  # w - z, with z = -mean in the block
                if carry > 0.0:
                    picked.append(first + p - i)
                    mu.append(carry)
            start += c
        first += max(j - i - 1, 0)
    return rho, picked, mu


@functools.lru_cache(maxsize=16)
def _level_shifts(domain: LatticeDomain) -> np.ndarray:
    """Rows e_(i,l+1) - e_(i,l) for consecutive levels, in (coordinate, level) order.

    Built once per domain and shared, so read-only.
    """
    coords = domain._level_coords[domain._rises]
    lows = np.flatnonzero(coords[1:] == coords[:-1])
    shifts = np.zeros((lows.size, coords.size))
    shifts[np.arange(lows.size), lows] = -1.0
    shifts[np.arange(lows.size), lows + 1] = 1.0
    shifts.flags.writeable = False
    return shifts


def _segments(domain: LatticeDomain) -> list:
    """Each coordinate's (start, stop) in its levels laid end to end in (coordinate, level) order."""
    ends = domain._increment_offsets.tolist() + [domain._rises.size]
    return list(zip(ends[:-1], ends[1:]))


def _pav_levels(segments: list, u: list) -> list:
    """Each coordinate's levels of u projected onto non-increasing sequences."""
    return [v for i, j in segments for v in _pav(u[i:j])]


def _separable_minimum(segments: list, w: list) -> float:
    """sum_i min(0, running prefix of w_i), for finite w: ``minimize_separable``'s
    value less the constant, bit for bit (the prefixes add as ``np.cumsum``
    does, and a zero minimum is level 0's +0.0, as argmin keeps the lowest tie).
    """
    lows = []
    for i, j in segments:
        low = prefix = 0.0
        for v in w[i:j]:
            prefix += v
            if prefix < low:
                low = prefix
        lows.append(low)
    return sum(lows)


def _rounded(rho: np.ndarray) -> np.ndarray:
    """rho / max(rho), clamped at 0: the rounding profile of rho, entry by entry.

    Its breakpoints are the positive levels of rho.  rho is non-increasing
    along each coordinate already (``_pav_levels``), so clamping to [0, 1] is
    its projection.  The entries may come in any order, such as walk order.
    """
    top = float(rho.max())
    return np.clip(rho / top if top > 0.0 else rho, 0.0, 1.0)


def _add_atom(atoms, greedy, weights, atom, is_greedy: bool):
    """Add ``atom`` at weight 0 and run Wolfe's minor cycles: the new corral.

    Each cycle moves the weights towards the least-norm point of the atoms'
    affine hull (greedy weights summing to 1) until one reaches zero, and
    drops it; the cycles end when that point has every weight positive.
    """
    atoms = np.concatenate((atoms, atom[None, :]))
    greedy = np.concatenate((greedy, [is_greedy]))
    weights = np.concatenate((weights, [0.0]))
    while True:
        target = _affine_minimizer(atoms, greedy)
        if (target > CORRAL_TOL).all():
            weights = target
            break
        low = np.flatnonzero(target <= CORRAL_TOL)
        room = weights[low] - target[low]
        ratios = np.where(room > 0.0, weights[low] / np.where(room > 0.0, room, 1.0), 0.0)
        k = int(np.argmin(ratios))
        weights = weights + ratios[k] * (target - weights)
        weights[low[k]] = 0.0
        keep = weights > CORRAL_TOL
        atoms, greedy, weights = atoms[keep], greedy[keep], weights[keep]
    weights[greedy] /= weights[greedy].sum()  # w stays a convex combination
    return atoms, greedy, weights


def _affine_minimizer(atoms, greedy) -> np.ndarray:
    """Weights minimising |weights @ atoms| subject to sum(weights[greedy]) == 1."""
    m = len(atoms)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = atoms @ atoms.T
    kkt[:m, m] = kkt[m, :m] = greedy
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        return np.linalg.solve(kkt, rhs)[:m]
    except np.linalg.LinAlgError:  # affinely dependent atoms
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m]
