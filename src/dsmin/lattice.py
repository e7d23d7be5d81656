"""Core lattice types: domains, points, function oracles, separable functions,
and brute-force structural checkers.

Conventions used throughout the package:
  - A domain is the product of integer ranges {0, ..., k_i - 1}, one per
    coordinate, with k_i >= 2.  Coordinates are 0-indexed.
  - A lattice point is a plain tuple of ints, one entry per coordinate.
  - Submodularity on the lattice, f(x) + f(y) >= f(min(x,y)) + f(max(x,y)),
    is equivalent to all cross second differences
        f(x+e_i+e_j) - f(x+e_i) - f(x+e_j) + f(x)   (i != j)
    being <= 0.  The checkers test the second-difference form, which is
    O(N * n^2) instead of O(N^2) over all pairs of points.
  - The diminishing-returns (DR) subclass additionally requires all
    within-coordinate second differences f(x+2e_i) - 2f(x+e_i) + f(x) <= 0.
  - Checkers use an absolute tolerance of 1e-9; problem magnitudes in the
    bundled generators are O(10^2) at most.

Brute-force operations (these checkers, ``dr_violation``,
``second_difference_extremes``, ``base_vertex_check``,
``brute_force_minimize``) cost one tabulation of N oracle calls plus array
work.  They refuse domains above a configurable point cap (default 10^6)
instead of silently running for hours.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

CHECK_TOL = 1e-9
DEFAULT_CAP = 10**6


class DomainError(ValueError):
    """A point (or shifted point) falls outside its lattice domain."""


class CapExceededError(RuntimeError):
    """A brute-force operation was asked to enumerate too many points."""


def _resolve_cap(cap):
    return DEFAULT_CAP if cap is None else int(cap)


class LatticeDomain:
    """The product lattice prod_i {0, ..., sizes[i] - 1}."""

    def __init__(self, sizes: Sequence[int]):
        sizes = tuple(int(k) for k in sizes)
        if len(sizes) < 1:
            raise ValueError("domain needs at least one coordinate")
        if any(k < 2 for k in sizes):
            raise ValueError(f"every coordinate needs >= 2 levels, got {sizes}")
        self.sizes = sizes
        self.n = len(sizes)
        self.num_points = math.prod(sizes)
        self.k_max = tuple(k - 1 for k in sizes)
        # row-major strides, last coordinate fastest
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        self._strides = tuple(strides)
        self._k_max = np.array(self.k_max, dtype=np.int64)
        # where coordinate i's levels start when all levels are laid end to end
        self._level_offsets = np.cumsum((0,) + sizes[:-1])

    @property
    def zero(self) -> tuple:
        return (0,) * self.n

    def contains(self, x) -> bool:
        return len(x) == self.n and all(0 <= x[i] <= self.sizes[i] - 1 for i in range(self.n))

    def require(self, x) -> tuple:
        """x as a tuple of ints in the domain: ``require_batch`` on one row."""
        return tuple(self.require_batch([x])[0].tolist())

    def require_batch(self, X) -> np.ndarray:
        """X as an (m, n) int64 array of points in the domain, else DomainError.

        Integer arrays and integral finite floats pass; booleans, fractions,
        NaN, infinities, ragged and non-numeric input do not.
        """
        try:
            X = np.asarray(X)
        except (TypeError, ValueError):  # ragged
            raise DomainError("batch is not a rectangular array of points") from None
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DomainError(f"batch of shape {X.shape} does not hold points of width {self.n}")
        if X.dtype.kind not in "iu":
            if X.dtype.kind != "f" or not np.all(np.isfinite(X) & (np.floor(X) == X)):
                raise DomainError(f"batch of dtype {X.dtype} holds non-integer coordinates")
        # bounds before the cast, which would wrap integral floats beyond int64
        outside = (X < 0) | (X > self._k_max)
        if np.count_nonzero(outside):
            x = tuple(X[np.argmax(outside.any(axis=1))].tolist())
            raise DomainError(f"point {x} outside domain with sizes {self.sizes}")
        return X.astype(np.int64, copy=False)

    def shift(self, x, i: int, delta: int) -> tuple:
        """x + delta * e_i, raising DomainError if the result leaves the domain."""
        y = list(x)
        y[i] += delta
        if not 0 <= y[i] <= self.sizes[i] - 1:
            raise DomainError(
                f"shift of {tuple(x)} by {delta:+d}*e_{i} leaves domain {self.sizes}"
            )
        return tuple(y)

    def flat_index(self, x) -> int:
        return sum(c * s for c, s in zip(x, self._strides))

    def points(self) -> Iterator[tuple]:
        """All lattice points in row-major (lexicographic) order."""
        return itertools.product(*(range(k) for k in self.sizes))

    def point_array(self) -> np.ndarray:
        """All lattice points as rows of an (N, n) int array, in the order of ``points``."""
        return np.indices(self.sizes).reshape(self.n, -1).T

    def check_cap(self, cap=None, what="operation"):
        cap = _resolve_cap(cap)
        if self.num_points > cap:
            raise CapExceededError(
                f"{what} would enumerate {self.num_points} points "
                f"(cap {cap}); raise the cap explicitly if this is intended"
            )

    def __eq__(self, other):
        return isinstance(other, LatticeDomain) and self.sizes == other.sizes

    def __hash__(self):
        return hash(self.sizes)

    def __repr__(self):
        return f"LatticeDomain({list(self.sizes)})"


class OracleFunction:
    """A real-valued function on a lattice domain, behind a counting oracle.

    ``f.batch(X)`` evaluates the rows of an ``(m, n)`` integer array and
    returns ``m`` floats; ``f(x)`` is a batch of one row.  There is one
    evaluation path: a point or batch is validated once, as a whole, where
    it enters (a wrong width, a boolean, a non-integer or non-finite entry,
    or a point outside the domain raises DomainError before anything is
    evaluated or counted), and ``_batch`` then counts one call per row and
    refuses a non-finite value with a ValueError naming the oracle and the
    first point that gave it.  The counter is lock-guarded so ensemble
    runners may evaluate distinct points from several threads.

    Give ``batch_fn``, ``fn`` or both; ``batch_fn`` is used when both are.
    ``batch_fn`` takes an ``(m, n)`` int64 array, already validated, and
    returns ``m`` floats.  ``fn`` takes a tuple of ints; without
    ``batch_fn``, a batch calls it once per row.
    """

    def __init__(self, domain: LatticeDomain, fn: Optional[Callable[[tuple], float]] = None,
                 name: str = "", batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        if fn is None and batch_fn is None:
            raise ValueError("an oracle needs fn or batch_fn")
        self.domain = domain
        self._fn = fn
        self._batch_fn = batch_fn
        self.name = name
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def call_count(self) -> int:
        return self._calls

    def reset_count(self):
        with self._lock:
            self._calls = 0

    def __call__(self, x) -> float:
        """The value at x, a batch of one row: one call."""
        return float(self._batch(self.domain.require_batch([x]))[0])

    def batch(self, X) -> np.ndarray:
        """Values at the rows of X, an (m, n) array of lattice points; m calls."""
        return self._batch(self.domain.require_batch(X))

    def _batch(self, X: np.ndarray) -> np.ndarray:
        """``batch`` for an array already validated against this domain."""
        with self._lock:
            self._calls += len(X)
        if self._batch_fn is None:
            values = np.array([float(self._fn(tuple(x))) for x in X.tolist()], dtype=float)
        else:
            values = np.asarray(self._batch_fn(X), dtype=float)
            if values.shape != (len(X),):
                raise ValueError(f"batch_fn returned shape {values.shape} for {len(X)} points")
        # a sum of squares is finite if every value is, unless it overflows (vdot,
        # unlike dot, raises no warning then)
        if not math.isfinite(np.vdot(values, values)) and not np.isfinite(values).all():
            k = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"{self!r} returned {values[k]} at point {tuple(X[k].tolist())}")
        return values

    # Composition helpers.  Derived oracles evaluate their parents through
    # the counting interface, so per-function call accounting stays honest.
    def __add__(self, other):
        if isinstance(other, OracleFunction):
            _same_domain(self, other)
            return OracleFunction(self.domain, batch_fn=lambda X: self._batch(X) + other._batch(X))
        c = float(other)
        return OracleFunction(self.domain, batch_fn=lambda X: self._batch(X) + c)

    def __sub__(self, other):
        if isinstance(other, OracleFunction):
            _same_domain(self, other)
            return OracleFunction(self.domain, batch_fn=lambda X: self._batch(X) - other._batch(X))
        c = float(other)
        return OracleFunction(self.domain, batch_fn=lambda X: self._batch(X) - c)

    def __mul__(self, scalar):
        c = float(scalar)
        return OracleFunction(self.domain, batch_fn=lambda X: c * self._batch(X))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        label = self.name or "fn"
        return f"OracleFunction({label}, domain={list(self.domain.sizes)})"


def _same_domain(a: OracleFunction, b: OracleFunction):
    if a.domain != b.domain:
        raise ValueError(f"domain mismatch: {a.domain} vs {b.domain}")


class TableFunction(OracleFunction):
    """Oracle backed by a dense table of values, row-major, last coordinate fastest."""

    def __init__(self, domain: LatticeDomain, values, name: str = ""):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != domain.num_points:
            raise ValueError(
                f"table has {values.size} entries, domain has {domain.num_points} points"
            )
        self.values = values
        strides = np.array(domain._strides, dtype=np.int64)
        # closing over the array, not self, leaves no cycle to delay freeing a dropped table
        super().__init__(domain, name=name, batch_fn=lambda X: values[X @ strides])


class SeparableFunction(OracleFunction):
    """constant + sum_i sum_{j<=x_i} w_i(j): the lattice analogue of a linear function.

    ``tables[i]`` holds the per-level increments w_i(1), ..., w_i(k_i - 1).
    All cross-coordinate second differences of a separable function vanish,
    so it is simultaneously submodular and supermodular (modular).
    """

    def __init__(self, domain: LatticeDomain, constant: float, tables, name: str = ""):
        tables = [np.asarray(t, dtype=float).reshape(-1) for t in tables]
        if len(tables) != domain.n:
            raise ValueError(f"need {domain.n} tables, got {len(tables)}")
        for i, t in enumerate(tables):
            if t.size != domain.sizes[i] - 1:
                raise ValueError(
                    f"tables[{i}]: expected {domain.sizes[i] - 1} increments, got {t.size}"
                )
        self.constant = float(constant)
        self.tables = tables
        # prefixes[i][v] = sum of the first v increments of coordinate i
        self.prefixes = [np.concatenate(([0.0], np.cumsum(t))) for t in tables]
        self._flat_prefixes = None  # built by the first values_at
        super().__init__(domain, name=name, batch_fn=self.values_at)

    @classmethod
    def zero(cls, domain: LatticeDomain):
        return cls(domain, 0.0, [np.zeros(k - 1) for k in domain.sizes])

    @classmethod
    def from_level_values(cls, domain: LatticeDomain, level_values, constant: float = 0.0):
        """Build from per-coordinate value curves c_i(0..k_i-1); adds sum_i c_i(x_i)."""
        tables = []
        for i, curve in enumerate(level_values):
            curve = np.asarray(curve, dtype=float)
            if curve.size != domain.sizes[i]:
                raise ValueError(
                    f"level_values[{i}]: expected {domain.sizes[i]} values, got {curve.size}"
                )
            tables.append(np.diff(curve))
        base = sum(float(np.asarray(c)[0]) for c in level_values)
        return cls(domain, constant + base, tables)

    def value(self, x) -> float:
        """Evaluate without touching the oracle counter."""
        return self.constant + sum(self.prefixes[i][x[i]] for i in range(self.domain.n))

    def values_at(self, X: np.ndarray) -> np.ndarray:
        """``value`` at each row of an (m, n) int array, summed in the same order."""
        if self._flat_prefixes is None:
            # all prefixes end to end; coordinate i's level v sits at offset i + v
            self._flat_prefixes = np.concatenate(self.prefixes)
        # cumsum adds along each row one coordinate at a time, like ``value``
        terms = self._flat_prefixes[X + self.domain._level_offsets]
        return self.constant + np.cumsum(terms, axis=1)[:, -1]

    def values_over_domain(self) -> np.ndarray:
        """Dense row-major table of all values (vectorised; does not count calls)."""
        return self.values_at(self.domain.point_array())

    def argmin_tables(self):
        """Per-coordinate levels minimising each prefix curve (lowest level on ties)."""
        return tuple(int(np.argmin(p)) for p in self.prefixes)

    def __add__(self, other):
        if isinstance(other, SeparableFunction):
            _same_domain(self, other)
            return SeparableFunction(
                self.domain,
                self.constant + other.constant,
                [a + b for a, b in zip(self.tables, other.tables)],
            )
        if isinstance(other, (int, float)):
            return SeparableFunction(self.domain, self.constant + float(other), self.tables)
        return super().__add__(other)

    def __sub__(self, other):
        if isinstance(other, SeparableFunction):
            _same_domain(self, other)
            return SeparableFunction(
                self.domain,
                self.constant - other.constant,
                [a - b for a, b in zip(self.tables, other.tables)],
            )
        if isinstance(other, (int, float)):
            return SeparableFunction(self.domain, self.constant - float(other), self.tables)
        return super().__sub__(other)

    def __mul__(self, scalar):
        c = float(scalar)
        return SeparableFunction(self.domain, c * self.constant, [c * t for t in self.tables])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"SeparableFunction(constant={self.constant}, domain={list(self.domain.sizes)})"


def constant_function(domain: LatticeDomain, c: float) -> SeparableFunction:
    return SeparableFunction(domain, c, [np.zeros(k - 1) for k in domain.sizes])


def table_of(f: OracleFunction, cap=None) -> np.ndarray:
    """Evaluate ``f`` at every point, row-major.  Cap-guarded."""
    return _Tabulation(f, cap, "tabulating a function").values.reshape(-1)


class _Tabulation:
    """``f`` tabulated once (cap check, then N calls), and its differences.

    ``cross``, ``within`` and ``marginals`` yield ``((i, j), D)`` per pair of
    coordinates or ``((i, None), D)`` per coordinate: ``D[x]`` is the
    difference at each x where it is defined, bit for bit equal to its scalar
    formula.  Memory stays O(N): slices come one at a time, and batches of
    ``_ROWS`` points bound a kernel's per-point temporaries (coverage: n * regions).
    """

    _ROWS = 1024

    def __init__(self, f: OracleFunction, cap, what: str):
        d = f.domain
        d.check_cap(cap, what=what)
        blocks = np.split(np.arange(d.num_points), range(self._ROWS, d.num_points, self._ROWS))
        self.values = np.concatenate([f.batch(np.stack(np.unravel_index(b, d.sizes), axis=1))
                                      for b in blocks]).reshape(d.sizes)

    def _at(self, reach, *steps):
        """f(x + sum of e_a over steps) at every x with x + sum of e_a over reach in the domain."""
        return self.values[tuple(slice(steps.count(a), k - reach.count(a) + steps.count(a))
                                 for a, k in enumerate(self.values.shape))]

    def cross(self):
        for i, j in itertools.combinations(range(self.values.ndim), 2):
            at = functools.partial(self._at, (i, j))
            yield (i, j), ((at(i, j) - at(i)) - at(j)) + at()

    def within(self):
        for i in range(self.values.ndim):
            at = functools.partial(self._at, (i, i))
            yield (i, None), (at(i, i) - 2.0 * at(i)) + at()

    def marginals(self):
        for i in range(self.values.ndim):
            at = functools.partial(self._at, (i,))
            yield (i, None), at(i) - at()

    def first_extremum(self, slices, kind: str, lowest: bool = False) -> tuple:
        """(value, witness, count of entries) of the largest entry, or the smallest.

        Ties go to the first entry in scan order (x row-major, then the slices
        in order), as in a scan that replaces its best only on a strict
        improvement.  With no entries: -inf (inf when ``lowest``) and None.
        """
        found = []  # (value, row-major rank of x, x, axes), one per nonempty slice
        count = 0
        for axes, D in slices:
            count += D.size
            if D.size:
                x = np.unravel_index(D.argmin() if lowest else D.argmax(), D.shape)
                found.append((float(D[x]), np.ravel_multi_index(x, self.values.shape),
                              tuple(int(c) for c in x), axes))
        if not found:
            return (math.inf if lowest else -math.inf), None, count
        values, ranks = np.array([entry[:2] for entry in found]).T
        value, _, x, axes = found[np.lexsort((ranks, values if lowest else -values))[0]]
        return value, Witness(x, *axes, value, kind), count


# ---------------------------------------------------------------------------
# Second differences and structural checkers
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """Location of a structural violation: point, coordinate(s) and its size."""

    point: tuple
    i: int
    j: Optional[int]
    value: float
    kind: str


@dataclass
class Verdict:
    holds: bool
    witness: Optional[Witness] = None
    checked: int = 0

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return f"Verdict(holds, checked={self.checked})"
        return f"Verdict(fails, witness={self.witness})"


def second_difference_cross(f: OracleFunction, x, i: int, j: int) -> float:
    """f(x+e_i+e_j) - f(x+e_i) - f(x+e_j) + f(x) for i != j.  Exactly 4 oracle calls."""
    if i == j:
        raise ValueError("cross second difference needs two distinct coordinates")
    d = f.domain
    x = d.require(x)
    xij = d.shift(d.shift(x, i, 1), j, 1)
    return f(xij) - f(d.shift(x, i, 1)) - f(d.shift(x, j, 1)) + f(x)


def second_difference_within(f: OracleFunction, x, i: int) -> float:
    """f(x+2e_i) - 2 f(x+e_i) + f(x): the one-coordinate curvature at x."""
    d = f.domain
    x = d.require(x)
    x2 = d.shift(x, i, 2)
    return f(x2) - 2.0 * f(d.shift(x, i, 1)) + f(x)


def check_submodular(f: OracleFunction, tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Brute-force submodularity check.

    Holds iff every cross second difference is <= tol.  On failure the
    returned witness is the maximal violation.  Refuses domains above the
    point cap.
    """
    table = _Tabulation(f, cap, "check_submodular")
    best, wit, checked = table.first_extremum(table.cross(), "cross")
    if best > tol:
        return Verdict(False, wit, checked)
    return Verdict(True, None, checked)


def check_dr(f: OracleFunction, tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Diminishing-returns check: submodular plus concave along each coordinate."""
    table = _Tabulation(f, cap, "check_dr")
    cross_best, cross_wit, c1 = table.first_extremum(table.cross(), "cross")
    within_best, within_wit, c2 = table.first_extremum(table.within(), "within")
    best = max(cross_best, within_best)
    if best > tol:
        wit = cross_wit if cross_best >= within_best else within_wit
        return Verdict(False, wit, c1 + c2)
    return Verdict(True, None, c1 + c2)


def check_monotone(f: OracleFunction, tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Holds iff every unit marginal f(x+e_i) - f(x) is >= -tol."""
    table = _Tabulation(f, cap, "check_monotone")
    worst, wit, checked = table.first_extremum(table.marginals(), "monotone", lowest=True)
    if worst < -tol:
        return Verdict(False, wit, checked)
    return Verdict(True, None, checked)
