"""Decompositions and representability results for difference-of-submodular
(DS) problems.

Contents:
  - DsProblem: a pair (f, g) of lattice submodular functions with objective
    v = f - g.
  - Modular + monotone decompositions of a DR-submodular function, either by
    the provably safe top-marginal slopes ("min_marginal") or by the
    harmonic-coefficient formula ("harmonic", reported together with a
    monotonicity verdict because its residual can fail to be monotone).
  - monotone_submodular_split: any submodular f as separable + (monotone and
    submodular, 0 at 0), by chaining the quadratic DR split with the
    min-marginal decomposition.
  - Additive lower bounds on min v from those decompositions.
  - DS representability: any lattice function v equals f - g for submodular
    f, g built from a strictly submodular reference quadratic scaled by the
    ratio of v's largest cross second difference to the reference's
    smallest; ds_construct performs the construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import (
    CapExceededError,
    LatticeDomain,
    OracleFunction,
    SeparableFunction,
    Verdict,
    _Tabulation,
    check_dr,
    check_monotone,
    check_submodular,
    constant_function,
)
from .bounds import dr_split, dr_violation
from .solvers import SfmResult, minimize_submodular


@dataclass
class DsProblem:
    """Objective v(x) = f(x) - g(x) with both parts lattice submodular."""

    f: OracleFunction
    g: OracleFunction
    provenance: str = "native"
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.f.domain != self.g.domain:
            raise ValueError("f and g must share one domain")

    @property
    def domain(self) -> LatticeDomain:
        return self.f.domain

    def v(self, x) -> float:
        return self.f(x) - self.g(x)

    def v_oracle(self) -> OracleFunction:
        return self.f - self.g


@dataclass
class MonotoneDecomposition:
    """f - f(0) = modular_part + monotone_part with monotone_part(0) = 0."""

    modular_part: SeparableFunction
    monotone_part: OracleFunction
    method: str
    monotone_verdict: Optional[Verdict] = None


def min_marginal_decomposition(f: OracleFunction, normalize: bool = True,
                               verify: bool = False, cap=None) -> MonotoneDecomposition:
    """Split a DR-submodular f into a linear part plus a monotone residual.

    The linear slope of coordinate i is the top marginal
    f(k_max) - f(k_max - e_i), the smallest marginal a DR function attains
    in that coordinate, so the residual has nonnegative marginals
    everywhere and vanishes at 0 (after subtracting f(0) when ``normalize``).
    For two-level domains this is the classical modular/monotone split of
    set functions.
    """
    d = f.domain
    if verify:
        verdict = check_dr(f, cap=cap)
        if not verdict:
            raise ValueError(f"input is not DR-submodular: {verdict.witness}")
    top_val = f(d.k_max)
    slopes = [top_val - f(d.shift(d.k_max, i, -1)) for i in range(d.n)]
    modular = SeparableFunction._of_increments(
        d, 0.0, np.repeat(np.array(slopes, dtype=float), np.array(d.sizes) - 1))
    shift = f(d.zero) if normalize else 0.0
    monotone = OracleFunction(d, batch_fn=lambda X: f._batch(X) - shift - modular.values_at(X))
    return MonotoneDecomposition(modular, monotone, "min_marginal")


def harmonic_decomposition(f: OracleFunction, cap=None) -> MonotoneDecomposition:
    """Split a DR-submodular f by the harmonic-coefficient formula.

    Coordinate i's modular increment at level j is
    (f(k_max) - f(k_max - j e_i)) / j.  The residual is not always monotone
    (a one-coordinate square root already breaks it), so the decomposition
    carries an explicit monotonicity verdict instead of a guarantee.
    """
    d = f.domain
    top_val = f(d.k_max)
    tables = []
    for i, k in enumerate(d.sizes):
        w = np.zeros(k - 1)
        for j in range(1, k):
            w[j - 1] = (top_val - f(d.shift(d.k_max, i, -j))) / j
        tables.append(w)
    modular = SeparableFunction(d, 0.0, tables)
    shift = f(d.zero)
    monotone = OracleFunction(d, batch_fn=lambda X: f._batch(X) - shift - modular.values_at(X))
    verdict = None
    try:
        verdict = check_monotone(monotone, cap=cap)
    except CapExceededError:
        pass
    return MonotoneDecomposition(modular, monotone, "harmonic", monotone_verdict=verdict)


def monotone_submodular_split(f: OracleFunction, cap=None):
    """Any submodular f as (separable, monotone submodular with value 0 at 0).

    Quadratic DR split with the brute-forced violation coefficient, then the
    min-marginal decomposition of the DR residual.  Linear and quadratic
    shifts leave cross second differences untouched, so the monotone part
    stays submodular.

    Returns
    -------
    (modular, monotone) : (SeparableFunction, OracleFunction)
        f(x) = modular(x) + monotone(x) exactly; modular absorbs f(0).
    """
    coeff = dr_violation(f, cap=cap)
    split = dr_split(f, coeff)
    decomp = min_marginal_decomposition(split.residual, normalize=True)
    modular = split.quad + decomp.modular_part + float(f(f.domain.zero))
    return modular, decomp.monotone_part


def monotone_form(fn: OracleFunction, cap=None):
    """(separable, monotone) split used by the additive bounds.

    Already-monotone inputs split trivially (constant + shifted copy);
    otherwise the full monotone_submodular_split runs.  Either way the
    monotone part is submodular, vanishes at 0, and
    fn = separable + monotone exactly.
    """
    d = fn.domain
    if check_monotone(fn, cap=cap):
        c = fn(d.zero)
        return constant_function(d, c), fn - c
    return monotone_submodular_split(fn, cap=cap)


@dataclass
class AdditiveBounds:
    bound1: Optional[float]
    bound2: float
    monotone_top_g: float           # value of g's monotone part at k_max
    modular_diff: SeparableFunction  # separable remainder k with v = f' - g' + k
    sfm: Optional[SfmResult] = None


def additive_lower_bounds(p: DsProblem, cap=None, sfm_method: str = "brute_force",
                          sfm_options=None) -> AdditiveBounds:
    """Two certified lower bounds on min v from the monotone decompositions.

    Writing v = f' - g' + k with f', g' monotone (0 at 0) and k separable:

        bound1 = min_x [f'(x) + k(x)] - g'(k_max)
        bound2 = f'(0) - g'(k_max) + sum_i min-prefix of k's coordinate i

    bound1 needs one submodular minimisation (f' + k is submodular).  Brute
    force gives its minimum; any other method gives its certified lower
    bound (``duality_info["lower_bound"]``), because the value an inexact
    solve returns may lie above the minimum.  If that solve is infeasible
    the bound is reported as None and bound2, a pure O(sum k_i) scan, is
    still returned.  bound2 <= f'(0) - g'(k_max) because
    every prefix scan includes level 0.
    """
    d = p.domain
    mod_f, mono_f = monotone_form(p.f, cap=cap)
    mod_g, mono_g = monotone_form(p.g, cap=cap)
    k_sep = mod_f - mod_g
    g_top = mono_g(d.k_max)

    f0 = mono_f(d.zero)
    scan = sum(k_sep._prefix_grid.min(axis=1).tolist())
    bound2 = f0 - g_top + k_sep.constant + scan

    bound1 = None
    sfm = None
    try:
        inner = mono_f + k_sep
        sfm = minimize_submodular(inner, method=sfm_method, options=sfm_options, cap=cap)
        certified = sfm.value if sfm.duality_info is None else sfm.duality_info["lower_bound"]
        bound1 = certified - g_top
    except CapExceededError:
        pass
    return AdditiveBounds(bound1, bound2, g_top, k_sep, sfm)


def second_difference_extremes(v: OracleFunction, cap=None):
    """Largest |cross second difference| of v and its location.  Cap-guarded."""
    table = _Tabulation(v, cap, "second_difference_extremes")
    cross = ((axes, np.abs(D)) for axes, D in table.cross())
    best, wit, _ = table.first_extremum(cross, "cross_abs")
    return (best, wit) if best > 0.0 else (0.0, None)


def reference_quadratic(domain: LatticeDomain):
    """The strictly submodular reference sum x_i^2 - 4 * sum_{i<j} x_i x_j.

    Every cross second difference equals -4 exactly, so the magnitude 4 is
    returned alongside the oracle for use in ds_construct.
    """
    if domain.n < 2:
        raise ValueError("reference quadratic needs at least two coordinates")

    def eval_ref(x):
        arr = np.asarray(x, dtype=float)
        sq = float(np.dot(arr, arr))
        cross = (float(arr.sum()) ** 2 - sq) / 2.0
        return sq - 4.0 * cross

    return OracleFunction(domain, eval_ref, name="reference_quadratic"), 4.0


class DsConstructionError(ValueError):
    """The scaled reference failed to absorb v's cross differences."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def ds_construct(v: OracleFunction, g_ref: OracleFunction, m_ref: float,
                 n_bound: float, validate: bool = True, cap=None) -> DsProblem:
    """Write an arbitrary v as a DS problem using a strictly submodular reference.

    With n_bound >= max |cross second difference of v| and every cross
    second difference of g_ref <= -m_ref < 0, the pair

        f = v + (n_bound / m_ref) * g_ref,      g = (n_bound / m_ref) * g_ref

    is submodular on both sides and f - g reproduces v exactly.  When
    ``validate`` and the domain is small enough, f is checked and a
    DsConstructionError with a witness is raised if n_bound was too small;
    above the cap a warning says that n_bound is trusted.
    """
    if v.domain != g_ref.domain:
        raise ValueError("v and the reference must share one domain")
    m_ref = float(m_ref)
    n_bound = float(n_bound)
    if m_ref <= 0:
        raise ValueError(f"m_ref must be > 0, got {m_ref}")
    if n_bound < 0:
        raise ValueError(f"n_bound must be >= 0, got {n_bound}")
    scale = n_bound / m_ref
    f = v + scale * g_ref
    g = scale * g_ref
    if validate:
        try:
            verdict = check_submodular(f, cap=cap)
            if not verdict:
                raise DsConstructionError(
                    f"n_bound={n_bound} too small: constructed f has a cross "
                    f"second difference of {verdict.witness.value:.6g} at "
                    f"{verdict.witness.point}", witness=verdict.witness)
        except CapExceededError:
            warnings.warn("domain too large to verify submodularity of the constructed f; "
                          f"n_bound={n_bound} is trusted")
    return DsProblem(f, g, provenance="constructed",
                     details={"n_bound": n_bound, "m_ref": m_ref})
