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
import numbers
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
        # the coordinate and the level at each of those flat positions, and the
        # positions of the levels 1..k_i - 1, where each increment ends
        self._level_coords = np.repeat(np.arange(self.n), sizes)
        self._levels = np.arange(sum(sizes)) - self._level_offsets[self._level_coords]
        self._rises = np.flatnonzero(self._levels)
        # where coordinate i's increments start when they are laid end to end
        self._increment_offsets = self._level_offsets - np.arange(self.n)
        # a zero-padded (n, max k) grid, row i for coordinate i: where each level,
        # and each increment (one column to the left), sits in the flattened grid
        width = max(sizes)
        self._level_slots = self._level_coords * width + self._levels
        self._increment_slots = (self._level_coords * (width - 1) + self._levels - 1)[self._rises]
        self._padding = np.arange(width)[None, :] >= np.array(sizes)[:, None]

    @functools.cached_property
    def _sweep_rows(self):
        """Double greedy's rows, coordinate by coordinate (see ``_Sweep``).

        Coordinate i's a-rows at levels 1..k_i - 1, then its b-rows at levels
        0..k_i - 2: (each coordinate's slice of the rows, and each row's
        coordinate, b-row flag and level).
        """
        rises = np.array(self.sizes) - 1
        starts = np.concatenate(([0], np.cumsum(2 * rises))).tolist()
        slices = [slice(s, e) for s, e in zip(starts[:-1], starts[1:])]
        coords = np.repeat(np.arange(self.n), 2 * rises)
        j = np.arange(starts[-1]) - np.array(starts[:-1])[coords]
        upper = j >= rises[coords]
        return slices, coords, upper, np.where(upper, j - rises[coords], j + 1)

    @property
    def zero(self) -> tuple:
        return (0,) * self.n

    def contains(self, x) -> bool:
        """Whether ``require`` accepts x."""
        try:
            self.require_batch([x])
        except DomainError:
            return False
        return True

    def require(self, x) -> tuple:
        """x as a tuple of ints in the domain: ``require_batch`` on one row."""
        return tuple(self.require_batch([x])[0].tolist())

    def require_batch(self, X) -> np.ndarray:
        """X as an (m, n) int64 array of points in the domain, else DomainError.

        Integer arrays and integral finite floats pass; booleans (also mixed
        with numbers), fractions, NaN, infinities, ragged and non-numeric input
        do not.  An integer beyond int64 is a point outside the domain.
        """
        rows = None if isinstance(X, np.ndarray) else X
        try:
            X = np.asarray(X)
        except (TypeError, ValueError):  # ragged
            raise DomainError("batch is not a rectangular array of points") from None
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DomainError(f"batch of shape {X.shape} does not hold points of width {self.n}")
        # numpy turns a boolean mixed with numbers into a number, so the elements
        # of input that was not an array yet are looked at one by one
        if rows is not None and not {type(v) for row in rows for v in row}.isdisjoint(
                (bool, np.bool_)):
            raise DomainError("batch holds boolean coordinates")
        if X.dtype == object and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                     for v in X.flat):
            pass  # integers beyond int64: the bounds check below reports the point
        elif X.dtype.kind not in "iu":
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
    returns ``m`` floats, and must give a row the same value in any batch:
    the MM loops read a chain row evaluated in one batch in place of
    evaluating it in another.  ``fn`` takes a tuple of ints; without
    ``batch_fn``, a batch calls it once per row.
    """

    # A subclass may define _batch_fn as a method instead: a bound method stored
    # on the instance would put it in a reference cycle, freed only by the cyclic GC.
    _fn = _batch_fn = None

    def __init__(self, domain: LatticeDomain, fn: Optional[Callable[[tuple], float]] = None,
                 name: str = "", batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        if fn is not None:
            self._fn = fn
        if batch_fn is not None:
            self._batch_fn = batch_fn
        if self._fn is None and self._batch_fn is None:
            raise ValueError("an oracle needs fn or batch_fn")
        self.domain = domain
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
        self._count(len(X))
        values = self._values(X)
        if not _finite(values):
            self._refuse(values, X)
        return values

    def _count(self, m: int):
        with self._lock:
            self._calls += m

    def _values(self, X: np.ndarray) -> np.ndarray:
        """The values at the rows of X, neither counted nor checked."""
        if self._batch_fn is None:
            return np.array([float(self._fn(tuple(x))) for x in X.tolist()], dtype=float)
        values = np.asarray(self._batch_fn(X), dtype=float)
        if values.shape != (len(X),):
            raise ValueError(f"batch_fn returned shape {values.shape} for {len(X)} points")
        return values

    def _refuse(self, values, X: np.ndarray):
        k = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"{self!r} returned {values[k]} at point {tuple(X[k].tolist())}")

    def _whole(self) -> Optional[np.ndarray]:
        """All N values, row-major, uncounted and unchecked, if f has a faster form than batches."""
        return None

    def _sweep(self) -> "_Sweep":
        """A fresh sweep of double greedy's rows (see ``_Sweep``)."""
        return _Sweep(self)

    # Composition helpers.  Derived oracles evaluate their parents through
    # the counting interface, so per-function call accounting stays honest.
    def __add__(self, other):
        return _Combined(np.add, self, other)

    def __sub__(self, other):
        return _Combined(np.subtract, self, other)

    def __mul__(self, scalar):
        return _Combined(np.multiply, self, float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        label = self.name or "fn"
        return f"OracleFunction({label}, domain={list(self.domain.sizes)})"


def _finite(values: np.ndarray) -> bool:
    # a sum of squares is finite if every value is, unless it overflows (vdot,
    # unlike dot, raises no warning then)
    return math.isfinite(np.vdot(values, values)) or bool(np.isfinite(values).all())


def _finite_floats(values: list) -> bool:
    """``_finite`` for Python floats: their sum is finite, or else a scan finds every one finite.

    A Python float sum overflows to inf without a warning.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _same_domain(a: OracleFunction, b: OracleFunction):
    if a.domain != b.domain:
        raise ValueError(f"domain mismatch: {a.domain} vs {b.domain}")


class _Combined(OracleFunction):
    """``op`` of a parent's values and a second parent's values or a constant.

    The arithmetic operators build it: f + g and f - g (``np.add`` and
    ``np.subtract`` of two parents), f + c and f - c (of one parent and c),
    and c * f (``np.multiply``).  Its parents are evaluated through their
    counting interface, on the array it was given, so each counts every row
    and refuses its own non-finite values before ``op`` combines them.  It
    has no sweep form: a sweep evaluates each coordinate's rows as one batch.
    """

    def __init__(self, op, parent: OracleFunction, other):
        if isinstance(other, OracleFunction):
            _same_domain(parent, other)
            self._parents, self._constant = (parent, other), ()
        else:
            self._parents, self._constant = (parent,), (float(other),)
        self._op = op
        super().__init__(parent.domain)

    def _batch_fn(self, X: np.ndarray) -> np.ndarray:
        return self._op(*[p._batch(X) for p in self._parents], *self._constant)


def _sweep_terms(d: LatticeDomain, per_level: np.ndarray, op: np.ufunc, identity: float):
    """Each sweep row's own term, for a sweep that carries the chosen levels' terms.

    ``per_level[_level_offsets[i] + l]`` is coordinate i's term at level l
    (trailing axes, if any, broadcast along).  A row of coordinate i takes
    its level's term; a b-row combines it by ``op`` with the later
    coordinates' top terms, folded by ``op`` from the last coordinate back
    (``identity`` when there are none), so it may round differently in the
    last bit from a fold in coordinate order.  An a-row's later terms are the
    identity, which ``op`` applies exactly.
    """
    tops = per_level[d._level_offsets + d._k_max]
    later = np.full_like(tops, identity)
    later[:-1] = op.accumulate(tops[:0:-1], axis=0)[::-1]
    _, coords, upper, levels = d._sweep_rows
    upper = upper.reshape((-1,) + (1,) * (tops.ndim - 1))
    return op(per_level[d._level_offsets[coords] + levels],
              np.where(upper, later[coords], identity))


class _Sweep:
    """Double greedy's rows of an oracle f, coordinate by coordinate.

    At coordinate i, with the levels c_<i of the earlier coordinates chosen,
    ``rows()`` returns f at the a-rows (c_<i, l, 0, ..., 0) for
    l = 1..k_i - 1, then at the b-rows (c_<i, l, k_max_>i) for
    l = 0..k_i - 2, as Python floats, counted as by ``_batch`` and checked
    by ``_finite_floats``: f refuses the first non-finite row.  ``choose(l)``
    sets c_i = l and moves on to coordinate i + 1.

    This form evaluates the rows as one batch of f, so they are the batch
    values, and a composite's parents count every row and refuse their own
    non-finite values before anything is combined.  A coverage or separable
    leaf returns a subclass from ``_sweep`` whose ``_values`` carries what
    the chosen levels contribute from one coordinate to the next.
    """

    def __init__(self, f: OracleFunction):
        self.f = f
        self.chosen = []
        self.slices = f.domain._sweep_rows[0]

    def rows(self) -> list:
        rows = self.slices[len(self.chosen)]
        self.f._count(rows.stop - rows.start)
        values = self._values(rows)
        if not _finite_floats(values):
            self.f._refuse(values, self.points())
        return values

    def choose(self, level: int):
        self.chosen.append(level)

    def points(self) -> np.ndarray:
        """The current coordinate's a-rows, then its b-rows, as points."""
        d = self.f.domain
        i = len(self.chosen)
        rows = self.slices[i]
        _, _, upper, levels = d._sweep_rows
        points = np.zeros((rows.stop - rows.start, d.n), dtype=np.int64)
        points[:, :i] = self.chosen
        points[upper[rows], i + 1:] = d._k_max[i + 1:]
        points[:, i] = levels[rows]
        return points

    def _values(self, rows: slice) -> list:
        """f's values at ``rows`` as Python floats, neither counted nor checked on f itself."""
        return self.f._values(self.points()).tolist()


class _RememberedSweep(_Sweep):
    """A sweep of g that remembers g's rows by the levels chosen before them.

    Sweeps built on one ``root`` share a trie of g's rows keyed by those
    levels, each node ``[its rows, or None; {level: child node}]``.  A
    remembered coordinate is read; at a prefix not seen yet, g's own sweep
    is caught up with the chosen levels, and the rows it computes and checks
    are kept (a refused row is not).
    """

    def __init__(self, g: OracleFunction, root: list):
        super().__init__(g)
        self.node = root
        self.inner = None  # g's own sweep, made at the first prefix not remembered

    def rows(self) -> list:
        values = self.node[0]
        if values is None:
            if self.inner is None:
                self.inner = self.f._sweep()
                for level in self.chosen:
                    self.inner.choose(level)
            values = self.node[0] = self.inner.rows()
        return values

    def choose(self, level: int):
        children = self.node[1]
        node = children.get(level)
        if node is None:
            node = children[level] = [None, {}]
        self.node = node
        if self.inner is not None:
            self.inner.choose(level)
        super().choose(level)


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

    def _whole(self) -> np.ndarray:
        return self.values


class SeparableFunction(OracleFunction):
    """constant + sum_i sum_{j<=x_i} w_i(j): the lattice analogue of a linear function.

    ``tables[i]`` holds the per-level increments w_i(1), ..., w_i(k_i - 1).
    All cross-coordinate second differences of a separable function vanish,
    so it is simultaneously submodular and supermodular (modular).

    The increments and their prefix sums are kept as flat arrays in
    (coordinate, level) order, so arithmetic, evaluation and minimisation are
    array operations.  The prefix sums are filled on first read, so a
    function that is only combined into another never pays for them;
    ``tables`` and ``prefixes`` split the flat arrays per coordinate on first
    access.
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
        self._setup(domain, constant, np.concatenate(tables), name)

    @classmethod
    def _of_increments(cls, domain: LatticeDomain, constant: float, increments: np.ndarray):
        """From all increments laid end to end in (coordinate, level) order, unchecked."""
        s = cls.__new__(cls)
        s._setup(domain, constant, increments, "")
        return s

    @classmethod
    def _of_levels(cls, domain: LatticeDomain, values: np.ndarray, constant: float = 0.0):
        """``from_level_values`` for the curves laid end to end in one flat array, unchecked."""
        increments = values[domain._rises] - values[domain._rises - 1]
        base = sum(values[domain._level_offsets].tolist())
        return cls._of_increments(domain, constant + base, increments)

    def _setup(self, domain: LatticeDomain, constant: float, increments: np.ndarray, name: str):
        self.constant = float(constant)
        self._increments = increments
        super().__init__(domain, name=name)

    # Filled on first read, after which each is a plain instance attribute.
    @functools.cached_property
    def _prefix_grid(self) -> np.ndarray:
        """The prefix sums in the padded (n, max k) grid (see ``_prefix_sums``)."""
        return _prefix_sums(self.domain, self._increments)

    @functools.cached_property
    def _flat_prefixes(self) -> np.ndarray:
        """The prefix sums laid end to end: coordinate i's level v at ``_level_offsets[i] + v``."""
        return self._prefix_grid.reshape(-1)[self.domain._level_slots]

    @functools.cached_property
    def tables(self):
        """Per-coordinate increment arrays (views of the flat increments)."""
        return np.split(self._increments, self.domain._increment_offsets[1:])

    @functools.cached_property
    def prefixes(self):
        """prefixes[i][v] = sum of the first v increments of coordinate i."""
        return np.split(self._flat_prefixes, self.domain._level_offsets[1:])

    @classmethod
    def zero(cls, domain: LatticeDomain):
        return constant_function(domain, 0.0)

    @classmethod
    def from_level_values(cls, domain: LatticeDomain, level_values, constant: float = 0.0):
        """Build from per-coordinate value curves c_i(0..k_i-1); adds sum_i c_i(x_i)."""
        curves = [np.asarray(c, dtype=float).reshape(-1) for c in level_values]
        if len(curves) != domain.n:
            raise ValueError(f"need {domain.n} value curves, got {len(curves)}")
        for i, curve in enumerate(curves):
            if curve.size != domain.sizes[i]:
                raise ValueError(
                    f"level_values[{i}]: expected {domain.sizes[i]} values, got {curve.size}"
                )
        return cls._of_levels(domain, np.concatenate(curves), constant)

    def value(self, x) -> float:
        """Evaluate without touching the oracle counter."""
        return self._value_at(self.domain.require_batch([x])[0])

    def _value_at(self, x: np.ndarray) -> float:
        """``value`` at a point already validated against this domain."""
        return self.constant + sum(self._flat_prefixes[self.domain._level_offsets + x].tolist())

    def values_at(self, X: np.ndarray) -> np.ndarray:
        """``value`` at each row of an (m, n) int array, summed in the same order."""
        # cumsum adds along each row one coordinate at a time, like ``value``
        terms = self._flat_prefixes[X + self.domain._level_offsets]
        return self.constant + np.cumsum(terms, axis=1)[:, -1]

    _batch_fn = values_at  # a method, not a bound method on the instance: no reference cycle

    def _sweep(self) -> _Sweep:
        return _SeparableSweep(self)

    def values_over_domain(self) -> np.ndarray:
        """Dense row-major table of all values, uncounted: constant + ((p_0 + p_1) + ...)
        broadcast, added in ``values_at``'s order, so its values bit for bit."""
        total = functools.reduce(np.add.outer, self.prefixes)
        return (self.constant + total).reshape(-1)

    _whole = values_over_domain

    def argmin_tables(self):
        """Per-coordinate levels minimising each prefix curve (lowest level on ties)."""
        return tuple(self._prefix_grid.argmin(axis=1).tolist())

    def __add__(self, other):
        if isinstance(other, SeparableFunction):
            _same_domain(self, other)
            return SeparableFunction._of_increments(self.domain, self.constant + other.constant,
                                                    self._increments + other._increments)
        if isinstance(other, numbers.Real):
            return SeparableFunction._of_increments(self.domain, self.constant + float(other),
                                                    self._increments)
        return super().__add__(other)

    def __sub__(self, other):
        if isinstance(other, SeparableFunction):
            _same_domain(self, other)
            return SeparableFunction._of_increments(self.domain, self.constant - other.constant,
                                                    self._increments - other._increments)
        if isinstance(other, numbers.Real):
            return SeparableFunction._of_increments(self.domain, self.constant - float(other),
                                                    self._increments)
        return super().__sub__(other)

    def __mul__(self, scalar):
        c = float(scalar)
        return SeparableFunction._of_increments(self.domain, c * self.constant,
                                                c * self._increments)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"SeparableFunction(constant={self.constant}, domain={list(self.domain.sizes)})"


def _prefix_sums(domain: LatticeDomain, increments: np.ndarray):
    """Each coordinate's prefix sums of ``increments``, in an (n, max k) grid.

    Row i holds 0 and then the cumsum of coordinate i's increments, bit for
    bit, and +inf in the padding, so that is never a minimum.
    """
    grid = np.zeros(domain._padding.shape)
    steps = np.zeros((domain.n, grid.shape[1] - 1))
    steps.flat[domain._increment_slots] = increments
    np.cumsum(steps, axis=1, out=grid[:, 1:])
    grid[domain._padding] = np.inf
    return grid


class _SeparableSweep(_Sweep):
    """A separable function's rows, with the chosen levels' prefix sums added as they are chosen.

    ``values_at`` adds a row's terms left to right.  After coordinate i an
    a-row's terms are zeros, so constant + ((total + p_i(l)) + 0.0) is that
    sum bit for bit; the running total starts at -0.0, which adds exactly.  A
    b-row adds the suffix sum of the later coordinates' top prefixes instead,
    which may round differently in the last bit.  Python floats add as IEEE
    doubles, as numpy's elementwise ops do.
    """

    def __init__(self, f: SeparableFunction):
        super().__init__(f)
        self.terms = _sweep_terms(f.domain, f._flat_prefixes, np.add, -0.0)
        self.total = -0.0

    def choose(self, level: int):
        f = self.f
        self.total += float(f._flat_prefixes[f.domain._level_offsets[len(self.chosen)] + level])
        super().choose(level)

    def _values(self, rows: slice) -> list:
        constant, total = self.f.constant, self.total
        zeros_after = 0.0 if rows.stop < self.terms.size else -0.0  # none after the last coordinate
        return [constant + ((total + term) + zeros_after) for term in self.terms[rows].tolist()]


def constant_function(domain: LatticeDomain, c: float) -> SeparableFunction:
    return SeparableFunction._of_increments(domain, c, np.zeros(domain._rises.size))


def table_of(f: OracleFunction, cap=None) -> np.ndarray:
    """Evaluate ``f`` at every point, row-major.  Cap-guarded."""
    return _Tabulation(f, cap, "tabulating a function").values.flatten()


class _Tabulation:
    """``f`` tabulated once (cap check, then N calls), and its differences.

    A table oracle is read, and a separable function summed, whole
    (``_whole``); other oracles are evaluated in batches of ``_ROWS`` points,
    which bound a kernel's per-point temporaries (coverage: n * regions).
    Either way N calls are counted, and the first non-finite value, row-major,
    is refused as ``_batch`` refuses it.

    ``cross``, ``within`` and ``marginals`` yield ``((i, j), D)`` per pair of
    coordinates or ``((i, None), D)`` per coordinate: ``D[x]`` is the
    difference at each x where it is defined, bit for bit equal to its scalar
    formula.  Memory stays O(N): slices come one at a time.  A verdict or
    ``dr_violation`` needs only ``extremum``, one reduction per slice; a
    checker makes the slices again for ``first_extremum``'s witness scan
    only when it fails.
    """

    _ROWS = 1024

    def __init__(self, f: OracleFunction, cap, what: str):
        d = f.domain
        d.check_cap(cap, what=what)
        values = f._whole()
        if values is None:
            blocks = np.split(np.arange(d.num_points), range(self._ROWS, d.num_points, self._ROWS))
            values = np.concatenate([f._batch(np.stack(np.unravel_index(b, d.sizes), axis=1))
                                     for b in blocks])
        else:
            f._count(d.num_points)
            if not _finite(values):
                f._refuse(values, d.point_array())
        self.values = values.reshape(d.sizes)

    def _at(self, reach, *steps):
        """f(x + sum of e_a over steps) at every x with x + sum of e_a over reach in the domain."""
        index = [slice(None)] * self.values.ndim
        for a in reach:
            index[a] = slice(steps.count(a), steps.count(a) - reach.count(a) or None)
        return self.values[tuple(index)]

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

    def extremum(self, slices, lowest: bool = False) -> tuple:
        """``first_extremum``'s (value, count of entries), from one max (min) per slice."""
        tops, count = [], 0
        for _, D in slices:
            count += D.size
            if D.size:
                tops.append(D.min() if lowest else D.max())
        if not tops:
            return (math.inf if lowest else -math.inf), count
        # a slice holding NaN tops at NaN, which first_extremum passes over unless all do
        return float((np.fmin if lowest else np.fmax).reduce(tops)), count

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
    best, checked = table.extremum(table.cross())
    wit = table.first_extremum(table.cross(), "cross")[1] if best > tol else None
    return Verdict(wit is None, wit, checked)


def check_dr(f: OracleFunction, tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Diminishing-returns check: submodular plus concave along each coordinate."""
    table = _Tabulation(f, cap, "check_dr")
    (cross, c1), (within, c2) = table.extremum(table.cross()), table.extremum(table.within())
    wit = None
    if max(cross, within) > tol:
        kind, slices = ("cross", table.cross) if cross >= within else ("within", table.within)
        wit = table.first_extremum(slices(), kind)[1]
    return Verdict(wit is None, wit, c1 + c2)


def check_monotone(f: OracleFunction, tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Holds iff every unit marginal f(x+e_i) - f(x) is >= -tol."""
    table = _Tabulation(f, cap, "check_monotone")
    worst, checked = table.extremum(table.marginals(), lowest=True)
    wit = table.first_extremum(table.marginals(), "monotone", True)[1] if worst < -tol else None
    return Verdict(wit is None, wit, checked)
