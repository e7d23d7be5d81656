"""Majorisation-minimisation loops for DS minimisation on integer lattices.

Three surrogate choices share one outer loop, all starting at x = 0:

  subsup: replace g by its chain lower bound (tight at x_t) and minimise
          f - bound, a submodular subproblem.
  supsub: replace f by its separable upper bound (tight at x_t) and
          minimise bound - g, i.e. maximise g - bound, a submodular
          maximisation handled by double greedy.
  modmod: replace both; the surrogate is separable and is minimised exactly
          (optionally under a cardinality budget).

Because both bounds are tight at the current iterate, the true objective
never increases along accepted steps; inexact inner solvers are additionally
guarded by comparing each candidate against the current iterate before
acceptance.  Steps are accepted only if they improve v by at least
epsilon * |v| (sign-safe form; plain strict descent when epsilon = 0).

supsub and modmod solve a surrogate equal bit for bit to the one they solved
last only once per solve: the stored point and value are proposed again, so
only call counters and times differ from solving it afresh.  supsub runs
double greedy on g and its separable bound m_f, whose rows it reads from
m_f's tables and subtracts from g's as floats.  Within one supsub solve, g's
rows are remembered by the levels chosen before them, and read again instead
of evaluated; this moves only g's call counter and times.  Within one modmod
or subsup solve, the last chain's points and values of g are kept, and a new
chain evaluates g only on the rows between its common prefix and its common
suffix with the last chain: again only g's call counter and times move.

When an iteration produces no accepted move, the current point is certified
by checking all 2n unit neighbours (the condition the O(n) adjacent-chain
families guarantee; the certificate builds that family when it is read).  A
failed certificate hands the loop its descending neighbour; a passed one
ends the run with status "certified_local_min".
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .lattice import (CapExceededError, LatticeDomain, OracleFunction, SeparableFunction,
                      _RememberedRows)
from .extension import Chain, _chain_bounds, _chain_containing, adjacent_chain_family
from .bounds import dr_violation, separable_upper_bound
from .decompose import DsProblem, monotone_form
from .solvers import (
    SFM_METHODS,
    SubgradientOptions,
    double_greedy_maximize,
    minimize_separable,
    minimize_separable_cardinality,
    minimize_submodular,
)

DESCENT_TOL = 1e-12

ALGORITHMS = ("subsup", "supsub", "modmod")
UB_POLICIES = ("try_both", "grow1", "grow2")


@dataclass
class SolveOptions:
    algorithm: str = "modmod"
    epsilon: float = 0.0
    max_iters: int = 100
    chain_mode: str = "canonical"   # or "randomized"
    seed: Optional[int] = None
    ub_policy: str = "try_both"     # "try_both" | "grow1" | "grow2"
    sfm_method: str = "brute_force"
    sfm_options: Optional[SubgradientOptions] = None
    dr_coeff: Optional[float] = None  # user-supplied quadratic split coefficient
    start: Optional[tuple] = None
    budget: Optional[int] = None    # cardinality budget, modmod only
    cap: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.ub_policy not in UB_POLICIES:
            raise ValueError(f"ub_policy must be one of {UB_POLICIES}")
        if self.chain_mode not in ("canonical", "randomized"):
            raise ValueError("chain_mode must be 'canonical' or 'randomized'")
        if self.sfm_method not in SFM_METHODS:
            raise ValueError(f"sfm_method must be one of {SFM_METHODS}")
        if self.dr_coeff is not None and not 0 <= self.dr_coeff < math.inf:
            raise ValueError(f"dr_coeff must be finite and >= 0, got {self.dr_coeff}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.budget is not None and self.algorithm != "modmod":
            raise ValueError("a cardinality budget is supported by modmod only")


@dataclass
class IterateRecord:
    t: int
    point: tuple
    v: float
    f_val: float
    g_val: float
    surrogate: Optional[float]
    accepted: bool
    label: str
    calls_f: int
    calls_g: int
    wall_time: float


@dataclass
class Certificate:
    """The unit-neighbour check of ``point`` (see ``certify_local_minimum``).

    ``chain_family`` is the adjacent chain family at ``point``: it shows which
    chain sweep covers the same neighbours.  The loop never reads it, so it is
    built on first access.
    """

    passed: bool
    point: tuple
    value: float
    neighbors: List[tuple]            # (point, v) pairs actually checked
    best_descending: Optional[tuple]  # (point, v) or None
    domain: LatticeDomain = field(repr=False)

    @functools.cached_property
    def chain_family(self) -> List[Chain]:
        return adjacent_chain_family(self.domain, self.point)


@dataclass
class PredictedBound:
    bound: float
    big_m: float   # f'(0) - g'(k_max) from the monotone decompositions
    small_m: float  # objective value after the first step


@dataclass
class SolveReport:
    algorithm: str
    iterates: List[IterateRecord]
    events: List[IterateRecord]
    status: str  # "certified_local_min" | "converged" | "iter_budget"
    certificate: Optional[Certificate] = None
    predicted: Optional[PredictedBound] = None

    @property
    def final_point(self) -> tuple:
        return self.iterates[-1].point

    @property
    def final_value(self) -> float:
        return self.iterates[-1].v

    @property
    def accepted_steps(self) -> int:
        return len(self.iterates) - 1


def accept_step(v_old: float, v_new: float, epsilon: float) -> bool:
    """Sign-safe epsilon-descent rule.

    epsilon = 0: accept strict improvements beyond float noise.
    epsilon > 0: require an improvement of at least epsilon * |v_old|.
    """
    if epsilon == 0:
        return v_new < v_old - DESCENT_TOL
    return v_new <= v_old - epsilon * max(abs(v_old), DESCENT_TOL)


def certify_local_minimum(p: DsProblem, x, tol: float = DESCENT_TOL,
                          budget: Optional[int] = None) -> Certificate:
    """Check v(x) <= v(x +- e_i) for every feasible unit neighbour.

    2n evaluations of v; with a cardinality budget, up-neighbours violating
    it are not feasible and are skipped.  f and g are each evaluated once at
    x, then in one batch over the feasible neighbours, ordered by
    coordinate, the up-neighbour first: 1 + neighbours calls of each.  The MM
    loop has v(x) already and evaluates the neighbours only.  The
    certificate's ``chain_family``, the adjacent chain family at x, is built
    only when read.
    """
    x = p.domain.require(x)
    return _certify(p, x, p.f(x) - p.g(x), tol, budget)[0]


def _certify(p: DsProblem, x: tuple, vx: float, tol: float = DESCENT_TOL,
             budget: Optional[int] = None):
    """``certify_local_minimum`` at a domain point x whose v(x) is known to be vx.

    Returns the certificate and (f, g) at its best descending neighbour, or
    None when it passes.
    """
    d = p.domain
    # rows 2i and 2i+1 are x + e_i and x - e_i
    points = np.repeat(np.array(x)[None], 2 * d.n, axis=0)
    points[np.arange(2 * d.n), np.repeat(np.arange(d.n), 2)] += np.tile([1, -1], d.n)
    feasible = ((points >= 0) & (points <= d._k_max)).all(axis=1)
    if budget is not None:
        feasible &= points.sum(axis=1) <= budget
    points = points[feasible]
    f_values, g_values = (p.f._batch(points), p.g._batch(points)) if len(points) else ([], [])
    values = np.subtract(f_values, g_values).tolist()
    neighbors = list(zip(map(tuple, points.tolist()), values))
    # the first lowest neighbour descends, or none does
    k = int(np.argmin(values)) if neighbors else None
    if k is None or not values[k] < vx - tol:
        return Certificate(True, x, vx, neighbors, None, d), None
    return (Certificate(False, x, vx, neighbors, neighbors[k], d),
            (float(f_values[k]), float(g_values[k])))


def _resolve_dr_coeff(f: OracleFunction, opts: SolveOptions) -> float:
    if opts.dr_coeff is not None:
        return float(opts.dr_coeff)
    try:
        return dr_violation(f, cap=opts.cap)
    except CapExceededError as exc:
        raise CapExceededError(
            f"{exc}; supply the quadratic split coefficient explicitly for "
            "domains beyond the brute-force cap"
        ) from exc


def _variants(policy: str):
    return ("grow1", "grow2") if policy == "try_both" else (policy,)


def _solve_once(solver: Callable) -> Callable:
    """``solver`` of a separable surrogate, reusing the last result for a repeated surrogate.

    A surrogate equal bit for bit to the last one solved (the same constant
    bits and the same increment bytes, so -0.0 and +0.0 differ) defines the
    same inner problem: its stored result is returned, and ``solver`` is not
    called.  The memo lives as long as the returned function, one solve.
    """
    last_key, last_result = None, None

    def solve(s: SeparableFunction):
        nonlocal last_key, last_result
        key = (s.constant.hex(), s._increments.tobytes())
        if key != last_key:
            last_key, last_result = key, solver(s)
        return last_result

    return solve


def _run_loop(p: DsProblem, opts: SolveOptions, propose: Callable) -> SolveReport:
    d = p.domain
    rng = random.Random(opts.seed)
    start = d.require(opts.start) if opts.start is not None else d.zero
    if opts.budget is not None and sum(start) > opts.budget:
        raise ValueError(f"start point {start} violates the budget {opts.budget}")

    t0 = time.perf_counter()
    calls_f0 = p.f.call_count
    calls_g0 = p.g.call_count

    def record(t, x, surrogate, accepted, label, known=None):
        """The event at x, a domain point; ``known`` is (f(x), g(x)) when already evaluated."""
        if known is None:
            X = np.array([x], dtype=np.int64)
            known = float(p.f._batch(X)[0]), float(p.g._batch(X)[0])
        f_val, g_val = known
        return IterateRecord(t, x, f_val - g_val, f_val, g_val, surrogate,
                             accepted, label,
                             p.f.call_count - calls_f0, p.g.call_count - calls_g0,
                             time.perf_counter() - t0)

    x = start
    iterates = [record(0, x, None, True, "start")]
    events = [iterates[0]]
    vx = iterates[0].v
    status = "iter_budget"
    certificate = None

    for t in range(1, opts.max_iters + 1):
        moved = False
        for cand, surrogate, label in propose(x, rng):
            cand = tuple(cand)
            if cand == x:
                continue
            rec = record(t, cand, surrogate, False, label)
            rec.accepted = accept_step(vx, rec.v, opts.epsilon)
            events.append(rec)
            if rec.accepted:
                x, vx = cand, rec.v
                iterates.append(rec)
                moved = True
                break
        if moved:
            continue

        cert, nbr_values = _certify(p, x, vx, budget=opts.budget)
        if cert.passed:
            status = "certified_local_min"
            certificate = cert
            break
        nbr, v_nbr = cert.best_descending
        if accept_step(vx, v_nbr, opts.epsilon):
            rec = record(t, nbr, None, True, "descending_neighbor", nbr_values)
            events.append(rec)
            iterates.append(rec)
            x, vx = nbr, rec.v
        else:
            # a neighbour descends, but by less than the epsilon threshold
            status = "converged"
            break

    predicted = None
    if opts.epsilon > 0:
        try:
            v_x1 = iterates[1].v if len(iterates) > 1 else iterates[0].v
            predicted = predicted_iteration_bound(p, opts.epsilon, v_x1=v_x1, cap=opts.cap)
        except CapExceededError:
            pass
    return SolveReport(opts.algorithm, iterates, events, status,
                       certificate=certificate, predicted=predicted)


def subsup(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    """MM with the chain lower bound on g; inner solves are submodular minimisations.

    g is fixed for the solve, so each chain evaluates g only on the rows it
    does not share, as a common prefix or suffix, with the last chain; the
    others are read from the last chain's values (``_chain_bounds``).
    """
    opts = opts or SolveOptions(algorithm="subsup")
    if opts.algorithm != "subsup":
        raise ValueError(f"options specify {opts.algorithm!r}")
    bound_g = _chain_bounds(p.g)

    def propose(x, rng):
        chain = _chain_containing(p.domain, x, opts.chain_mode, rng=rng)
        inner = p.f - bound_g(x, chain)
        res = minimize_submodular(inner, method=opts.sfm_method,
                                  options=opts.sfm_options, cap=opts.cap)
        yield res.minimizer, res.value, "subsup"

    return _run_loop(p, opts, propose)


def supsub(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    """MM with the separable upper bound on f; inner solves are double greedy.

    The inner problem is max g - m_f over the bound m_f, solved by
    ``double_greedy_maximize(g, m_f)``: g's rows less m_f's, which are read
    from m_f's prefix tables, never by calling m_f, and no composite
    g - m_f is built.  A bound equal bit for bit to the last one solved is
    not solved again: its point and value are proposed once more, without
    double greedy's calls of g.  g is fixed for the solve, and a double
    greedy row of g depends only on the levels chosen before it, so the
    runs of one solve share g's rows: a row an earlier run evaluated at the
    same chosen levels is read, not evaluated again
    (``lattice._RememberedRows``).  A separable g needs no such memo:
    ``double_greedy_maximize(g - m_f)`` runs on one separable function.
    """
    opts = opts or SolveOptions(algorithm="supsub")
    if opts.algorithm != "supsub":
        raise ValueError(f"options specify {opts.algorithm!r}")
    coeff = _resolve_dr_coeff(p.f, opts)
    # g is fixed for the solve, so a repeated bound m_f repeats the inner problem
    if isinstance(p.g, SeparableFunction):
        maximize = _solve_once(lambda m_f: double_greedy_maximize(p.g - m_f))
    else:
        g = _RememberedRows(p.g)
        maximize = _solve_once(lambda m_f: double_greedy_maximize(g, m_f))

    def propose(x, rng):
        for variant in _variants(opts.ub_policy):
            cand, val = maximize(separable_upper_bound(p.f, coeff, x, variant))
            yield cand, -val, f"supsub:{variant}"

    return _run_loop(p, opts, propose)


def modmod(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    """MM with both bounds; the separable surrogate is minimised exactly.

    The surrogate is ub - h_g.  One equal bit for bit to the last one solved
    is not minimised again: its point and value are proposed once more.  As
    in subsup, the chain bound h_g evaluates g only on the rows the chain
    does not share, as a common prefix or suffix, with the last chain of the
    solve (``_chain_bounds``).
    """
    opts = opts or SolveOptions(algorithm="modmod")
    if opts.algorithm != "modmod":
        raise ValueError(f"options specify {opts.algorithm!r}")
    coeff = _resolve_dr_coeff(p.f, opts)
    if opts.budget is not None:
        minimize = _solve_once(
            lambda s: minimize_separable_cardinality(s, p.domain, opts.budget))
    else:
        minimize = _solve_once(minimize_separable)
    bound_g = _chain_bounds(p.g)

    def propose(x, rng):
        chain = _chain_containing(p.domain, x, opts.chain_mode, rng=rng)
        h_g = bound_g(x, chain)
        for variant in _variants(opts.ub_policy):
            cand, val = minimize(separable_upper_bound(p.f, coeff, x, variant) - h_g)
            yield cand, val, f"modmod:{variant}"

    return _run_loop(p, opts, propose)


def solve(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    opts = opts or SolveOptions()
    return {"subsup": subsup, "supsub": supsub, "modmod": modmod}[opts.algorithm](p, opts)


def predicted_iteration_bound(p: DsProblem, epsilon: float,
                              v_x1: Optional[float] = None, cap=None) -> PredictedBound:
    """Worst-case accepted-step count log(|M|/|m|) / epsilon.

    M is f'(0) - g'(k_max) from the monotone decompositions of f and g; m is
    the objective value after the first MM step (one modmod step is run when
    it is not supplied).  m = 0 reports a bound of 0: the first iterate is
    already as good as the scale argument can certify.  A monotone part
    vanishes at 0 by construction, so f'(0) = 0 and f is not decomposed.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    _, mono_g = monotone_form(p.g, cap=cap)
    big_m = 0.0 - mono_g(p.domain.k_max)
    if v_x1 is None:
        probe = modmod(p, SolveOptions(algorithm="modmod", epsilon=epsilon,
                                       max_iters=1, cap=cap))
        v_x1 = probe.iterates[-1].v
    small_m = float(v_x1)
    if small_m == 0.0:
        return PredictedBound(0.0, big_m, small_m)
    if epsilon == 0.0 or big_m == 0.0:
        bound = math.inf if epsilon == 0.0 else -math.inf
        return PredictedBound(bound, big_m, small_m)
    return PredictedBound(math.log(abs(big_m) / abs(small_m)) / epsilon, big_m, small_m)
