"""Separable upper bounds for lattice submodular functions.

Tight separable upper bounds exist directly only for DR-submodular
functions, so a general submodular f is first split as

    f(x) = coeff * (x_1^2 + ... + x_n^2) + h(x),

where coeff bounds the largest within-coordinate second difference of f
(its DR violation) and h = f - quadratic is then DR-submodular.  The
quadratic part is already separable; adding a separable bound for h that is
tight at an anchor x gives a separable bound for f that majorises f
everywhere and equals f(x) at the anchor.

Four bound variants are exposed.  Each adds to h(x), at level l of
coordinate i, one term

    h(B, i -> L) - h(B, i -> R),

where (B, i -> L) is the base point B with coordinate i set to L.  Each
variant has one base below the anchor level x_i and one above it
(top = k_max):

  variant  B below  B above  L, R below            L, R above
  grow1    x        0        l, x_i                l - x_i, 0
  grow2    top      x        k_i - 1 - x_i + l,    l, x_i
                             k_i - 1
  tight1   x        0        l, x_i                l, x_i
  tight2   top      x        l, x_i                l, x_i

All four majorise h and are tight at x; tight1 <= grow1 and
tight2 <= grow2 pointwise (the grow variants relax the tight ones by
diminishing returns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeDomain, OracleFunction, SeparableFunction, _Tabulation

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
    worst, _ = table.extremum(table.within())
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
    d = f.domain
    quad = SeparableFunction._of_increments(d, 0.0, _quadratic_increments(d, coeff))
    residual = OracleFunction(d, batch_fn=lambda X: f._batch(X) - quad.values_at(X))
    return DrDecomposition(coeff, quad, residual)


def _quadratic_increments(d: LatticeDomain, coeff: float) -> np.ndarray:
    """The increments of coeff * sum_i x_i^2: coeff * (2j - 1) at level j.

    A NaN, infinite or negative coeff raises a ValueError naming it, before
    anything is evaluated.
    """
    if not 0 <= coeff < math.inf:
        raise ValueError(f"quadratic coefficient must be finite and >= 0, got {coeff}")
    return coeff * (2.0 * d._levels[d._rises] - 1.0)


def _level_table(d: LatticeDomain, anchor: np.ndarray, variant: str):
    """The variant's term at every (coordinate, level), in (coordinate, level) order.

    Returns (below, L, R): whether the level lies below the anchor, and the
    levels L and R whose values at the side's base the term subtracts (see
    the module docstring).  At the anchor level L = R.
    """
    coord, level = d._level_coords, d._levels
    at = anchor[coord]
    below = level < at
    if variant == "grow1":
        return below, np.where(below, level, level - at), np.where(below, at, 0)
    if variant == "grow2":
        top = d._k_max[coord]
        return below, np.where(below, top - at + level, level), np.where(below, top, at)
    return below, level, at


def dr_upper_bound(h: OracleFunction, x, variant: str = "grow1") -> SeparableFunction:
    """Separable upper bound of a DR-submodular h, tight at the anchor x.

    See the module docstring for the four variants.  h is trusted to be
    DR-submodular; the bound property fails otherwise.  Every point the
    variant needs is evaluated in one batch: h(x), then h(0) for grow1 or
    h(k_max) for grow2, then the point (B, i -> L) of each level off the
    anchor.  (B, i -> R) is B itself where B is one of those shared points.
    Elsewhere (tight1 above the anchor, tight2 below it) R is x_i, so the
    point depends only on the coordinate: it is evaluated last, once per
    coordinate with such a level, and read by each of its levels.
    """
    if variant not in UB_VARIANTS:
        raise ValueError(f"variant must be one of {UB_VARIANTS}, got {variant!r}")
    d = h.domain
    x = d.require(x)
    anchor = np.array(x)
    top = np.array(d.k_max)
    zero = np.zeros(d.n, dtype=np.int64)

    # one row per (coordinate, level) with level != x[coordinate]
    below, L, R = _level_table(d, anchor, variant)
    off = L != R
    coord, below, L, R = d._level_coords[off], below[off], L[off], R[off]
    low, high = (anchor, zero) if variant in ("grow1", "tight1") else (top, anchor)
    shared = [anchor] + ([zero] if variant == "grow1" else [top] if variant == "grow2" else [])
    own = ~below if variant == "tight1" else below if variant == "tight2" else np.zeros_like(below)

    points_L = np.where(below[:, None], low, high)
    points_L[np.arange(coord.size), coord] = L
    # the own rows' R point (B, i -> x_i), with B = 0 for tight1 and k_max for tight2;
    # not np.unique, whose first call costs over 1 MB of resident memory
    has_own = np.zeros(d.n, dtype=bool)
    has_own[coord[own]] = True
    own_coords = np.flatnonzero(has_own)
    points_R = np.repeat((zero if variant == "tight1" else top)[None], own_coords.size, axis=0)
    points_R[np.arange(own_coords.size), own_coords] = anchor[own_coords]

    values = h._batch(np.vstack(shared + [points_L, points_R]))
    hx, ref = values[0], values[len(shared) - 1]
    h_L = values[len(shared):len(shared) + coord.size]
    # h(B, i -> R) is h(B) where B is shared; ref is h(0), h(k_max) or h(x)
    h_low, h_high = (hx, ref) if low is anchor else (ref, hx)
    h_R = np.where(below, h_low, h_high)
    h_R[own] = values[len(shared) + coord.size:][np.searchsorted(own_coords, coord[own])]

    phi = np.zeros(sum(d.sizes))
    phi[off] = h_L - h_R
    return SeparableFunction._of_levels(d, phi, float(hx))


def separable_upper_bound(f: OracleFunction, coeff: float, x,
                          variant: str = "grow1") -> SeparableFunction:
    """Separable bound for a general submodular f: quadratic split plus DR bound.

    Requires coeff >= dr_violation(f) (trusted or verified by the caller).
    The result majorises f everywhere and equals f at the anchor.

    A ``SeparableFunction`` f is not evaluated: its residual h = f - quad is
    separable too, so each level's term h(B, i -> L) - h(B, i -> R) is
    h_i(L) - h_i(R), read from the curves of h whatever the base.  tight1
    and tight2 then equal f itself and are returned as a copy of it.  Such a
    bound makes no oracle calls and agrees with the evaluated one up to
    rounding.
    """
    if not isinstance(f, SeparableFunction):
        split = dr_split(f, coeff)
        return split.quad + dr_upper_bound(split.residual, x, variant)
    return _separable_bound(f, _separable_split(f, float(coeff)), x, variant)


def _separable_split(f: SeparableFunction, coeff: float):
    """(quad, h): quad = coeff * sum_i x_i^2, and h_i(l) = f_i(l) - quad_i(l) laid end to end.

    h_i(l) sits at ``_level_offsets[i] + l``.
    """
    d = f.domain
    quad = SeparableFunction._of_increments(d, 0.0, _quadratic_increments(d, coeff))
    return quad, f._flat_prefixes - quad._flat_prefixes


def _separable_bound(f: SeparableFunction, split, x, variant: str) -> SeparableFunction:
    """``separable_upper_bound`` of a separable f from its ``_separable_split``."""
    if variant not in UB_VARIANTS:
        raise ValueError(f"variant must be one of {UB_VARIANTS}, got {variant!r}")
    d = f.domain
    quad, h = split
    anchor = d.require_batch([x])[0]
    if variant in ("tight1", "tight2"):
        return SeparableFunction._of_increments(d, f.constant, f._increments)
    _, L, R = _level_table(d, anchor, variant)
    start = d._level_offsets[d._level_coords]
    phi = h[start + L] - h[start + R]
    hx = f._value_at(anchor) - quad._value_at(anchor)
    return quad + SeparableFunction._of_levels(d, phi, hx)
