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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import Profile, greedy_extension
from .lattice import (LatticeDomain, OracleFunction, SeparableFunction, _bounded, _same_domain,
                      _Tabulation)


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
    past the float range (``lattice._bounded``), raise a ValueError: a -inf
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
    if not (np.isfinite(s._flat_prefixes).all() and _bounded(-sum(lows.tolist()))):
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

    Each point is evaluated once: g(a) and g(b) at the start, then the
    2(k_i - 1) level rows of each coordinate, from g's sweep (see
    ``lattice._Sweep``).  The new a and b are rows of the sweep or
    unchanged, so their values are carried forward, and the returned value
    is the carried h(a).  That is exactly 2 + 2 * sum_i (k_i - 1) calls of
    g.  m's type and domain are checked before g is called, and m is never
    called: its values are read from its prefix tables, its rows by
    ``lattice._SeparableSweep.floats``, and subtracted from g's as Python
    floats.  supsub passes its bound m_f so, with a view of its g that
    remembers g's rows across the runs of one solve
    (``lattice._RememberedRows``): g counts only the rows evaluated.

    g's rows are checked as g's own sweep checks them, so a non-finite value
    of g is refused by g before anything is subtracted.  The values of g - m
    are checked unless the bounds of g's and m's sweeps prove them finite:
    a non-finite value of m is refused by m, and one of the difference
    raises a ValueError naming g and m.

    Each coordinate's rows are compared as Python floats: the gains one by
    one, and the first best level on each side by ``max`` and ``index``.

    A coverage or separable sweep, g's or m's, carries the chosen levels
    from one coordinate to the next.  Its a-rows are the batch values bit
    for bit, and so is the returned value.  Its b-rows take the later
    coordinates' top levels as one suffix sum or product, so the b-side
    gains, compared within this call and never returned, may differ from
    the batch ones in the last bit: a choice could differ only between gains
    equal to within rounding.  Any other oracle's rows, a composite's
    included, are its batch values.

    For nonnegative submodular h the returned value is at least 1/3 of the
    maximum; the factor is inherited from the classical double greedy and
    checked empirically by the test suite.
    """
    if m is not None:
        if not isinstance(m, SeparableFunction):
            raise TypeError(f"m must be a SeparableFunction, got {type(m).__name__}")
        _same_domain(g, m)
    d = g.domain
    ends = np.stack([np.zeros(d.n, dtype=np.int64), d._k_max])
    ga, gb = g._batch(ends).tolist()
    sweep = g._sweep()
    if m is not None:
        m_sweep = m._sweep()
        ga, gb = _difference(g, m, [ga, gb], m.values_at(ends).tolist(), lambda: ends)
        # rows that the bounds of g's and m's sweeps prove finite are not checked
        checked = not _bounded(sweep.bound + m_sweep.bound)
    # at coordinate i, a_i = 0 and b_i = top: the a-rows raise a_i to 1..top,
    # the b-rows lower b_i to 0..top - 1
    for top, rows in zip(d.k_max, d._sweep_rows[0]):
        values = sweep.rows().tolist()
        if m is not None:
            values = _difference(g, m, values, m_sweep.floats(rows),
                                 sweep.points if checked else None)
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
    """g's values less m's, as Python floats, checked unless ``points`` is None.

    ``points()`` gives the points of the values.  A non-finite value of m is
    refused by m; one of the difference raises a ValueError naming g and m.
    """
    values = [v - w for v, w in zip(g_values, m_values)]
    if points is not None and not all(map(math.isfinite, values)):
        X = points()
        if not all(map(math.isfinite, m_values)):
            m._refuse(np.array(m_values), X)
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
    out = []
    for s, c in zip(sums, counts):
        out += [s / c] * c
    return out


def project_profile(profile: Profile) -> Profile:
    """Project each coordinate onto non-increasing sequences, then clamp to [0, 1]."""
    levels = [np.clip(pav_nonincreasing(v), 0.0, 1.0) for v in profile.levels]
    return Profile(profile.domain, levels, validate=False)


SFM_METHODS = ("brute", "brute_force", "subgradient", "subgrad")

# relative certified gap at which the minimum-norm-point SFM stops
SFM_TOL = 1e-9
# corral weights at or below this are zero; also the relative slack of its stopping tests
CORRAL_TOL = 1e-12


@dataclass
class SubgradientOptions:
    """Options of minimize_submodular(method="subgradient").

    The name is historical: the method is now a certified minimum-norm-point
    solver, and ``iterations`` is its budget of bound evaluations.
    """
    iterations: int = 500

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"SFM iterations must be >= 1, got {self.iterations}")


@dataclass
class SfmResult:
    minimizer: tuple
    value: float
    method: str
    iterations: int = 0
    duality_info: Optional[dict] = None


def _round_and_extend(f: OracleFunction, profile: Profile):
    """The best threshold rounding of ``profile``, its value, and the extension value there.

    Evaluates x(t) at every distinct breakpoint t, in one batch; the best of
    these never exceeds the extension value at profile, because the extension
    is an average of exactly these points.  Ties go to the smallest point.
    x(t) equals x(t_k) for t in (t_{k-1}, t_k] between consecutive
    breakpoints (t_0 = 0), so the extension is the sum of those interval
    lengths times the values; no further oracle calls are made.
    """
    ts = profile.breakpoints()
    points = profile.points_at(ts)
    # x(t) falls as t rises, so equal points are adjacent; keep the first of each run
    distinct = np.ones(len(points), dtype=bool)
    distinct[1:] = (points[1:] != points[:-1]).any(axis=1)
    points = points[distinct]
    values = f._batch(points)
    lengths = np.add.reduceat(np.diff(ts, prepend=0.0), np.flatnonzero(distinct))
    # the points also fall lexicographically, so the smallest tied point is the last
    k = len(points) - 1 - int(np.argmin(values[::-1]))
    return tuple(points[k].tolist()), float(values[k]), float(lengths @ values)


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
    exactly and drop the atoms whose weight reaches zero.

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
    _, s = greedy_extension(f, Profile._of_flat(d, np.full(d._rises.size, 0.5)))
    f0 = s.constant
    atoms = s._increments[None, :]  # one per row
    greedy = np.ones(1, dtype=bool)            # greedy vector (True) or level shift
    weights = np.ones(1)
    best_point, best_value, best_ext, lower = None, math.inf, math.inf, -math.inf
    for iteration in range(1, budget + 1):
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
        point, value, ext = _round_and_extend(f, _rounding_profile(d, rho))
        if value < best_value:
            best_point, best_value = point, value
        best_ext = min(best_ext, ext)
        w = (weights[greedy] @ atoms[greedy]).tolist()
        lower = max(lower, f0 + _separable_minimum(segments, w))
        if best_value - lower <= SFM_TOL * max(1.0, abs(best_value)) or iteration == budget:
            break
        # greedy_extension reads only the order of the entries, so rho may leave [0, 1]
        _, s = greedy_extension(f, Profile._of_flat(d, rho))
        vertex = s._increments
        if z @ z - z @ vertex <= CORRAL_TOL * max(1.0, z @ z):
            break  # no greedy vector lowers |z|: z is the least-norm point
        atoms, greedy, weights = _add_atom(atoms, greedy, weights, vertex, True)
    lower = min(lower, best_value)  # a lower bound never exceeds a value of f
    info = {"best_extension": best_ext, "rounding_gap": best_ext - best_value,
            "lower_bound": lower, "gap": best_value - lower}
    return SfmResult(best_point, best_value, "subgradient",
                     iterations=iteration, duality_info=info)


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


def _rounding_profile(domain: LatticeDomain, rho: np.ndarray) -> Profile:
    """rho / max(rho), clamped at 0: its breakpoints are the positive levels of rho.

    rho is non-increasing along each coordinate already (``_pav_levels``), so
    clamping to [0, 1] is its projection.
    """
    top = float(rho.max())
    scaled = rho / top if top > 0.0 else rho
    return Profile._of_flat(domain, np.clip(scaled, 0.0, 1.0))


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
