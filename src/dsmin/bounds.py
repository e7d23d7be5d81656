"""Separable upper bounds for lattice submodular functions.

Tight separable upper bounds exist directly only for DR-submodular
functions, so a general submodular f is first split as

    f(x) = coeff * (x_1^2 + ... + x_n^2) + h(x),

where coeff bounds the largest within-coordinate second difference of f
(its DR violation) and h = f - quadratic is then DR-submodular.  The
quadratic part is already separable; adding a separable bound for h that is
tight at an anchor x gives a separable bound for f that majorises f
everywhere and equals f(x) at the anchor.

Four bound variants are exposed.  Writing a_i = max(x_i - y_i, 0) and
b_i = max(y_i - x_i, 0), the per-coordinate contribution added to h(x) is:

  grow1:  -[h(x) - h(x - a_i e_i)]            for levels below the anchor,
          +[h(b_i e_i) - h(0)]                 for levels above it.
  grow2:  -[h(top) - h(top - a_i e_i)]         below (top = k_max),
          +[h(x + b_i e_i) - h(x)]             above.
  tight1: grow1 below; above, the added increments are anchored at the
          lowest base consistent with the anchor coordinate:
          +[h((x_i + b_i) e_i) - h(x_i e_i)].
  tight2: below, the removed increments are anchored at the highest
          consistent base z = k_max with z_i = x_i:
          -[h(z) - h(z - a_i e_i)]; grow2 above.

All four majorise h and are tight at x; tight1 <= grow1 and
tight2 <= grow2 pointwise (the grow variants relax the tight ones by
diminishing returns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import OracleFunction, SeparableFunction, _Tabulation

UB_VARIANTS = ("grow1", "grow2", "tight1", "tight2")


@dataclass
class DrDecomposition:
    """f = quad + residual with residual DR-submodular when coeff is large enough."""

    coeff: float
    quad: SeparableFunction
    residual: OracleFunction


def dr_violation(f: OracleFunction, cap=None) -> float:
    """Largest within-coordinate second difference of f, clamped at 0.

    0 means f is already DR-submodular.  Brute force; cap-guarded.
    """
    table = _Tabulation(f, cap, "dr_violation")
    worst, _, _ = table.first_extremum(table.within(), "within")
    return max(0.0, worst)


def dr_violation_quadratic(A) -> float:
    """DR violation of x'Ax (+ linear + constant) from its coefficient matrix.

    The within-coordinate second difference of x'Ax is 2*A_ii, so the bound
    is 2 * max(0, max_i A_ii); linear and constant terms contribute nothing.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return 2.0 * max(0.0, float(np.max(np.diag(A))))


def dr_split(f: OracleFunction, coeff: float) -> DrDecomposition:
    """Split f into coeff * sum_i x_i^2 plus a residual.

    The residual is DR-submodular whenever coeff >= dr_violation(f); the
    identity quad(x) + residual(x) = f(x) holds exactly by construction.
    """
    coeff = float(coeff)
    if coeff < 0:
        raise ValueError(f"quadratic coefficient must be >= 0, got {coeff}")
    d = f.domain
    # increments of coeff * x^2: coeff * (2j - 1) at level j
    tables = [coeff * (2.0 * np.arange(1, k) - 1.0) for k in d.sizes]
    quad = SeparableFunction(d, 0.0, tables)
    residual = OracleFunction(d, batch_fn=lambda X: f._batch(X) - quad.values_at(X))
    return DrDecomposition(coeff, quad, residual)


def dr_upper_bound(h: OracleFunction, x, variant: str = "grow1") -> SeparableFunction:
    """Separable upper bound of a DR-submodular h, tight at the anchor x.

    See the module docstring for the four variants.  h is trusted to be
    DR-submodular; the bound property fails otherwise.  Every point the
    variant needs is evaluated in one batch: h(x), then h(0) for grow1 or
    h(k_max) for grow2, then one point per level off the anchor, and a second
    one for the levels whose bound is a difference of two off-anchor values
    (tight1 above the anchor, tight2 below it).
    """
    if variant not in UB_VARIANTS:
        raise ValueError(f"variant must be one of {UB_VARIANTS}, got {variant!r}")
    d = h.domain
    x = d.require(x)
    anchor = np.array(x)
    top = np.array(d.k_max)
    zero = np.zeros(d.n, dtype=np.int64)

    # one row per (coordinate, level) with level != x[coordinate]
    coord = np.repeat(np.arange(d.n), d.sizes)
    level = np.concatenate([np.arange(k) for k in d.sizes])
    off = level != anchor[coord]
    coord, level = coord[off], level[off]
    below = level < anchor[coord]
    rows = np.arange(coord.size)

    def with_level(base, values, where=None):
        """base with coordinate coord[r] set to values[r], for the rows r in where."""
        where = rows if where is None else rows[where]
        points = np.repeat(base[None, :], where.size, axis=0)
        points[np.arange(where.size), coord[where]] = np.asarray(values)[where]
        return points

    # first: the point whose value enters each level's bound with a plus sign
    # (a minus sign for grow1/grow2/tight1 below the anchor); second: the point
    # subtracted, where it is not the shared h(x), h(0) or h(k_max)
    if variant in ("grow1", "tight1"):
        axis_level = level if variant == "tight1" else level - anchor[coord]
        first = np.where(below[:, None], with_level(anchor, level),
                         with_level(zero, axis_level))
    elif variant == "grow2":
        top_level = top[coord] - (anchor[coord] - level)
        first = np.where(below[:, None], with_level(top, top_level), with_level(anchor, level))
    else:  # tight2
        first = np.where(below[:, None], with_level(top, level), with_level(anchor, level))
    shared = [anchor] + ([zero] if variant == "grow1" else [top] if variant == "grow2" else [])
    if variant == "tight1":
        second = with_level(zero, anchor[coord], ~below)
    elif variant == "tight2":
        second = with_level(top, anchor[coord], below)
    else:
        second = np.empty((0, d.n), dtype=np.int64)

    values = h.batch(np.vstack([np.array(shared), first, second]))
    hx, ref = values[0], values[len(shared) - 1]
    h_first = values[len(shared):len(shared) + coord.size]
    h_second = values[len(shared) + coord.size:]

    bound = np.empty(coord.size)
    if variant == "grow1":
        bound[below] = -(hx - h_first[below])
        bound[~below] = h_first[~below] - ref
    elif variant == "tight1":
        bound[below] = -(hx - h_first[below])
        bound[~below] = h_first[~below] - h_second
    elif variant == "grow2":
        bound[below] = -(ref - h_first[below])
        bound[~below] = h_first[~below] - hx
    else:  # tight2
        bound[below] = h_first[below] - h_second
        bound[~below] = h_first[~below] - hx

    phi = np.zeros(sum(d.sizes))
    phi[off] = bound
    contribs = np.split(phi, np.cumsum(d.sizes)[:-1])
    tables = [np.diff(c) for c in contribs]
    constant = float(hx) + sum(float(c[0]) for c in contribs)
    return SeparableFunction(d, constant, tables)


def separable_upper_bound(f: OracleFunction, coeff: float, x,
                          variant: str = "grow1") -> SeparableFunction:
    """Separable bound for a general submodular f: quadratic split plus DR bound.

    Requires coeff >= dr_violation(f) (trusted or verified by the caller).
    The result majorises f everywhere and equals f at the anchor.
    """
    split = dr_split(f, coeff)
    return split.quad + dr_upper_bound(split.residual, x, variant)
