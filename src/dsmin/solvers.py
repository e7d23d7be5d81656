"""Subproblem solvers: exact separable minimisation (plain and under a
cardinality budget), deterministic double greedy for lattice submodular
maximisation, and lattice submodular minimisation (brute force, or
Wolfe's minimum-norm-point algorithm with a certified gap and threshold
rounding).

All exact solvers break ties lexicographically so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import Profile, _split_levels, greedy_extension
from .lattice import LatticeDomain, OracleFunction, SeparableFunction, _Tabulation


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
    """
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    b_cap = min(budget, d._rises.size)

    # One min-plus step per coordinate, from the last: with best[b] the minimum
    # over x_{i+1}.. of their prefix sums under sum <= b, totals[b, l] is that
    # for budget b - l plus coordinate i's prefix at level l.  A level above
    # the top or the budget meets +inf, from the padding of the prefix grid or
    # from best[b_cap + 1].  argmin takes the lowest minimising level.
    grid = s._prefix_grid
    left = np.arange(b_cap + 1)[:, None] - np.arange(grid.shape[1])[None, :]
    left[left < 0] = b_cap + 1
    rows = np.arange(b_cap + 1)
    best = np.zeros(b_cap + 2)
    best[-1] = np.inf
    choice = np.empty((d.n, b_cap + 1), dtype=np.int64)
    for i in range(d.n - 1, -1, -1):
        totals = grid[i] + best[left]
        choice[i] = totals.argmin(axis=1)
        best[:-1] = totals[rows, choice[i]]

    # the lowest level first, coordinate by coordinate: the lexicographically smallest minimiser
    point = []
    b = b_cap
    for i in range(d.n):
        point.append(int(choice[i, b]))
        b -= point[-1]
    return tuple(point), float(s.constant + best[b_cap])


def double_greedy_maximize(g: OracleFunction):
    """Deterministic double greedy for lattice submodular maximisation.

    Maintains a <= b with a = 0 and b = k_max initially.  For each
    coordinate in index order, every level between a_i and b_i is scored
    twice: as a raise of a (gain g(a with a_i -> level) - g(a)) and as a
    lowering of b (gain g(b with b_i -> level) - g(b)).  The better of the
    two best gains wins (both are >= 0 since staying put scores 0); on a
    tie the raise of a wins.  Ties among levels resolve to the lowest tied
    level on both sides: the one closest to a_i when raising a, but the one
    farthest from b_i when lowering b.  Both points then agree on the
    coordinate.

    Each point is evaluated once: g(a) and g(b) at the start, then the
    2(k_i - 1) level rows of each coordinate, from g's sweep (see
    ``lattice._Sweep``).  The new a and b are rows of the sweep or
    unchanged, so their values are carried forward, and the returned value
    is the carried g(a).  That is exactly 2 + 2 * sum_i (k_i - 1) oracle
    calls.  supsub passes g - m_f over a view of its g that remembers g's
    rows across the runs of one solve (``lattice._RememberedRows``): the
    composite still counts every row, while g counts only those evaluated.

    Each coordinate's rows are compared as Python floats: the gains one by
    one, and the first best level on each side by ``max`` and ``index``.

    An oracle with its own sweep form (coverage, separable functions and
    their +, -, + c and c * composites, nested to any depth) carries the
    chosen levels from one coordinate to the next.  Its a-rows are the batch
    values bit for bit, and so is the returned g(a).  Its b-rows take the later coordinates' top
    levels as one suffix sum or product, so the b-side gains, compared within
    this call and never returned, may differ from the batch ones in the last
    bit: a choice could differ only between gains equal to within rounding.

    For nonnegative submodular g the returned value is at least 1/3 of the
    maximum; the factor is inherited from the classical double greedy and
    checked empirically by the test suite.
    """
    d = g.domain
    ga, gb = g._batch(np.stack([np.zeros(d.n, dtype=np.int64), d._k_max])).tolist()
    sweep = g._sweep()
    # at coordinate i, a_i = 0 and b_i = top: the a-rows raise a_i to 1..top,
    # the b-rows lower b_i to 0..top - 1
    for top in d.k_max:
        values = sweep.rows().tolist()
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
    return tuple(sweep.chosen), ga


def brute_force_minimize(v: OracleFunction, cap=None):
    """Exact minimum of an arbitrary lattice function by enumeration.

    Ties resolve to the lexicographically smallest point.  Cap-guarded.
    """
    table = _Tabulation(v, cap, "brute_force_minimize")
    value, wit, _ = table.first_extremum([((-1, None), table.values)], "minimum", lowest=True)
    return wit.point, value


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
    _, s = greedy_extension(f, Profile.constant(d, 0.5))
    f0 = s.constant
    atoms = s._increments[None, :]  # one per row
    greedy = np.ones(1, dtype=bool)            # greedy vector (True) or level shift
    weights = np.ones(1)
    best_point, best_value, best_ext, lower = None, math.inf, math.inf, -math.inf
    for iteration in range(1, budget + 1):
        # level shifts first: they cost no oracle calls and make z
        # non-decreasing along every coordinate
        z = weights @ atoms
        slack = shifts @ z
        while slack.size and slack.min() < -CORRAL_TOL * max(1.0, np.abs(z).max()):
            atoms, greedy, weights = _add_atom(atoms, greedy, weights,
                                               shifts[int(np.argmin(slack))], False)
            z = weights @ atoms
            slack = shifts @ z
        rho = _pav_levels(d, -z)
        point, value, ext = _round_and_extend(f, _rounding_profile(d, rho))
        if value < best_value:
            best_point, best_value = point, value
        best_ext = min(best_ext, ext)
        w = weights[greedy] @ atoms[greedy]
        _, bound = minimize_separable(SeparableFunction._of_increments(d, f0, w))
        lower = max(lower, bound)
        if best_value - lower <= SFM_TOL * max(1.0, abs(best_value)) or iteration == budget:
            break
        # greedy_extension reads only the order of the entries, so rho may leave [0, 1]
        _, s = greedy_extension(f, Profile(d, _split_levels(d, rho), validate=False))
        vertex = s._increments
        if z @ z - z @ vertex <= CORRAL_TOL * max(1.0, z @ z):
            break  # no greedy vector lowers |z|: z is the least-norm point
        atoms, greedy, weights = _add_atom(atoms, greedy, weights, vertex, True)
    lower = min(lower, best_value)  # a lower bound never exceeds a value of f
    info = {"best_extension": best_ext, "rounding_gap": best_ext - best_value,
            "lower_bound": lower, "gap": best_value - lower}
    return SfmResult(best_point, best_value, "subgradient",
                     iterations=iteration, duality_info=info)


def _level_shifts(domain: LatticeDomain) -> np.ndarray:
    """Rows e_(i,l+1) - e_(i,l) for consecutive levels, in (coordinate, level) order."""
    ends = np.cumsum([k - 1 for k in domain.sizes])
    lows = np.array([j for end, k in zip(ends, domain.sizes)
                     for j in range(end - k + 1, end - 1)], dtype=np.int64)
    shifts = np.zeros((lows.size, int(ends[-1])))
    shifts[np.arange(lows.size), lows] = -1.0
    shifts[np.arange(lows.size), lows + 1] = 1.0
    return shifts


def _pav_levels(domain: LatticeDomain, u: np.ndarray) -> np.ndarray:
    """Each coordinate's levels of u projected onto non-increasing sequences."""
    return np.concatenate([pav_nonincreasing(v) for v in _split_levels(domain, u)])


def _rounding_profile(domain: LatticeDomain, rho: np.ndarray) -> Profile:
    """rho / max(rho), clamped at 0: its breakpoints are the positive levels of rho.

    rho is non-increasing along each coordinate already (``_pav_levels``), so
    clamping to [0, 1] is its projection.
    """
    top = float(rho.max())
    scaled = rho / top if top > 0.0 else rho
    return Profile(domain, _split_levels(domain, np.clip(scaled, 0.0, 1.0)), validate=False)


def _add_atom(atoms, greedy, weights, atom, is_greedy: bool):
    """Add ``atom`` at weight 0 and run Wolfe's minor cycles: the new corral.

    Each cycle moves the weights towards the least-norm point of the atoms'
    affine hull (greedy weights summing to 1) until one reaches zero, and
    drops it; the cycles end when that point has every weight positive.
    """
    atoms = np.vstack([atoms, atom])
    greedy = np.append(greedy, is_greedy)
    weights = np.append(weights, 0.0)
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
