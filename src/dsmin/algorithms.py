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

Each solve keeps its memos in one ``_Solve``: the last surrogate solved,
the last chain's values of g, double greedy's rows of g and a separable f's
quadratic split.  f and g are fixed for the solve, so every memo moves only
call counters and times: each bound and each inner result equals, bit for
bit, the one computed afresh, and a second solve makes the same calls.

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
                      _RememberedSweep)
from .extension import (Chain, _chain_containing, _require_on_chain, _separable_along,
                        adjacent_chain_family)
from .bounds import _separable_bound, _separable_split, dr_violation, separable_upper_bound
from .decompose import DsProblem, monotone_form
from .solvers import (
    SFM_METHODS,
    SubgradientOptions,
    _check_count,
    _double_greedy,
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
        for name in ("epsilon", "dr_coeff"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        _check_count("max_iters", self.max_iters, 1)
        if self.ub_policy not in UB_POLICIES:
            raise ValueError(f"ub_policy must be one of {UB_POLICIES}")
        if self.chain_mode not in ("canonical", "randomized"):
            raise ValueError("chain_mode must be 'canonical' or 'randomized'")
        if self.sfm_method not in SFM_METHODS:
            raise ValueError(f"sfm_method must be one of {SFM_METHODS}")
        if self.dr_coeff is not None and not 0 <= self.dr_coeff < math.inf:
            raise ValueError(f"dr_coeff must be finite and >= 0, got {self.dr_coeff}")
        if self.budget is not None:
            _check_count("budget", self.budget, 0)
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


class _Solve:
    """One solve's problem, options, split coefficient and memos.

    subsup, supsub and modmod each build one at the start of a solve; no
    memo outlives it.
    """

    def __init__(self, p: DsProblem, opts: SolveOptions, coeff: Optional[float] = None):
        self.p, self.opts, self.coeff = p, opts, coeff
        self._solved = None   # the last surrogate's key and its result
        self._chain = None    # the last chain's points and values of g
        self._rows = [None, {}]  # the root of the trie of g's double greedy rows
        self._f_split = None  # a separable f's quadratic split at coeff

    def solved(self, s: SeparableFunction, solver: Callable):
        """``solver(s)``, or the last result when s equals the last surrogate solved.

        Equal means the same constant bits and increment bytes (-0.0 and +0.0
        differ): the same inner problem.
        """
        key = (s.constant.hex(), s._increments.tobytes())
        if self._solved is None or self._solved[0] != key:
            self._solved = key, solver(s)
        return self._solved[1]

    def lower(self, x: tuple, chain: Chain) -> SeparableFunction:
        """``chain_lower_bound(g, x, chain)``, evaluating only the rows the last chain lacks.

        A chain through y raises coordinates up to y, then up to k_max, so
        two chains share their rows before the first coordinate where their
        anchors differ and after the last one.  The rows between the first
        and the last row that differ from the last chain are evaluated in one
        batch, and the others are read.  A refused row raises before the kept
        chain is replaced.
        """
        _require_on_chain(chain, x)
        g = self.p.g
        points = chain.point_array()
        if self._chain is None:
            values = g._batch(points)
        else:
            last_points, values = self._chain
            values = values.copy()
            differ = np.flatnonzero((points != last_points).any(axis=1))
            if differ.size:
                rows = slice(differ[0], differ[-1] + 1)
                values[rows] = g._batch(points[rows])
        self._chain = points, values
        return _separable_along(g.domain, chain._incs, values)

    def upper(self, x: tuple, variant: str) -> SeparableFunction:
        """``separable_upper_bound(f, coeff, x, variant)``; a separable f is split once."""
        f = self.p.f
        if not isinstance(f, SeparableFunction):
            return separable_upper_bound(f, self.coeff, x, variant)
        if self._f_split is None:
            self._f_split = _separable_split(f, self.coeff)
        return _separable_bound(f, self._f_split, x, variant)

    def maximize(self, m: SeparableFunction):
        """``double_greedy_maximize(g, m)``, reading the rows of g an earlier run evaluated.

        A row of g depends only on the levels chosen before it, so the runs
        share a trie of g's rows keyed by those levels
        (``lattice._RememberedSweep``).  A separable g - m needs none.
        """
        g = self.p.g
        if isinstance(g, SeparableFunction):
            return double_greedy_maximize(g - m)
        return _double_greedy(g, m, _RememberedSweep(g, self._rows))

    def run(self, propose: Callable) -> SolveReport:
        """The MM loop over the candidates ``propose(x, rng)`` yields at each iterate."""
        p, opts = self.p, self.opts
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

    Each chain evaluates g only on the rows it does not share, as a common
    prefix or suffix, with the last chain (``_Solve.lower``).
    """
    opts = opts or SolveOptions(algorithm="subsup")
    if opts.algorithm != "subsup":
        raise ValueError(f"options specify {opts.algorithm!r}")
    solve = _Solve(p, opts)

    def propose(x, rng):
        chain = _chain_containing(p.domain, x, opts.chain_mode, rng=rng)
        inner = p.f - solve.lower(x, chain)
        res = minimize_submodular(inner, method=opts.sfm_method,
                                  options=opts.sfm_options, cap=opts.cap)
        yield res.minimizer, res.value, "subsup"

    return solve.run(propose)


def supsub(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    """MM with the separable upper bound on f; inner solves are double greedy.

    The inner problem is max g - m_f over the bound m_f, solved by double
    greedy of g's rows less m_f's, which are read from m_f's prefix tables
    (``_Solve.maximize``); a bound equal to the last one is not solved again.
    """
    opts = opts or SolveOptions(algorithm="supsub")
    if opts.algorithm != "supsub":
        raise ValueError(f"options specify {opts.algorithm!r}")
    solve = _Solve(p, opts, _resolve_dr_coeff(p.f, opts))

    def propose(x, rng):
        for variant in _variants(opts.ub_policy):
            cand, val = solve.solved(solve.upper(x, variant), solve.maximize)
            yield cand, -val, f"supsub:{variant}"

    return solve.run(propose)


def modmod(p: DsProblem, opts: Optional[SolveOptions] = None) -> SolveReport:
    """MM with both bounds; the separable surrogate ub - h_g is minimised exactly.

    A surrogate equal to the last one is not minimised again, and as in
    subsup h_g evaluates g only on the rows the last chain lacks.
    """
    opts = opts or SolveOptions(algorithm="modmod")
    if opts.algorithm != "modmod":
        raise ValueError(f"options specify {opts.algorithm!r}")
    solve = _Solve(p, opts, _resolve_dr_coeff(p.f, opts))

    def minimize(s):
        if opts.budget is None:
            return minimize_separable(s)
        return minimize_separable_cardinality(s, p.domain, opts.budget)

    def propose(x, rng):
        chain = _chain_containing(p.domain, x, opts.chain_mode, rng=rng)
        h_g = solve.lower(x, chain)
        for variant in _variants(opts.ub_policy):
            cand, val = solve.solved(solve.upper(x, variant) - h_g, minimize)
            yield cand, val, f"modmod:{variant}"

    return solve.run(propose)


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
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
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
