"""Convex extension of lattice functions, greedy evaluation, chains, and the
tight separable lower bound.

A lattice function f extends from prod_i {0..k_i-1} to products of
distributions over levels.  A distribution over coordinate i's levels is
encoded by its reverse-cumulative weights rho_i(j) = P(X_i >= j) for
j = 1..k_i-1, so each rho_i is a non-increasing vector in [0,1].  The
extension is

    ext(p) = integral_0^1 f(level(p_1, t), ..., level(p_n, t)) dt,

and is evaluated exactly by a greedy pass: sort all entries of the profile in
decreasing order (ties: levels of one coordinate keep increasing-level
order, across coordinates ascending index), walk the induced increasing
chain from 0, and weight each marginal gain by its profile entry.

A *chain* is a maximal increasing lattice path 0 = p_0 < ... < p_r = k_max
raising one coordinate by one level per step (r = sum_i (k_i - 1)).  It
"contains" y when p at index sum(y) equals y.  Taking marginal gains of f
along a chain containing y yields a separable function that equals f on
every chain point and, when f is submodular, lower-bounds f everywhere.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional

import numpy as np

from .lattice import (
    CHECK_TOL,
    LatticeDomain,
    OracleFunction,
    SeparableFunction,
    Verdict,
    Witness,
    _Tabulation,
)

PROFILE_TOL = 1e-9


class Profile:
    """Per-coordinate non-increasing level weights in [0, 1].

    ``levels[i][j-1]`` is the weight of level j of coordinate i
    (j = 1..k_i-1).  Entry order within a coordinate is non-increasing.  The
    weights are kept as one flat array in (coordinate, level) order, the
    order of ``LatticeDomain._rises``; ``levels`` splits it per coordinate
    on first read.
    """

    def __init__(self, domain: LatticeDomain, levels, validate: bool = True):
        levels = [np.asarray(v, dtype=float).reshape(-1) for v in levels]
        if len(levels) != domain.n:
            raise ValueError(f"need {domain.n} level vectors, got {len(levels)}")
        for i, v in enumerate(levels):
            if v.size != domain.sizes[i] - 1:
                raise ValueError(
                    f"levels[{i}]: expected {domain.sizes[i] - 1} entries, got {v.size}"
                )
        if validate:
            for i, v in enumerate(levels):
                if v.size and (v.min() < -PROFILE_TOL or v.max() > 1 + PROFILE_TOL):
                    raise ValueError(f"levels[{i}] leave [0, 1]: {v}")
                if np.any(np.diff(v) > PROFILE_TOL):
                    raise ValueError(f"levels[{i}] not non-increasing: {v}")
        self.domain = domain
        self._flat = np.concatenate(levels)

    @classmethod
    def _of_flat(cls, domain: LatticeDomain, flat: np.ndarray):
        """From all weights laid end to end in (coordinate, level) order, unchecked."""
        profile = cls.__new__(cls)
        profile.domain = domain
        profile._flat = flat
        return profile

    @classmethod
    def constant(cls, domain: LatticeDomain, value: float):
        return cls(domain, [np.full(k - 1, float(value)) for k in domain.sizes])

    @functools.cached_property
    def levels(self) -> List[np.ndarray]:
        """Per-coordinate weight arrays (views of the flat weights)."""
        return np.split(self._flat, self.domain._increment_offsets[1:])

    def entry_count(self) -> int:
        return self._flat.size

    def point_at(self, t: float) -> tuple:
        return tuple(self.points_at([t])[0].tolist())

    def points_at(self, thresholds) -> np.ndarray:
        """Row k holds the level of every coordinate at thresholds[k] (see level_at)."""
        ts = _thresholds(thresholds)
        # each coordinate's count of weights >= t
        return np.add.reduceat(self._flat[None, :] >= ts[:, None],
                               self.domain._increment_offsets, axis=1, dtype=np.int64)

    def breakpoints(self) -> np.ndarray:
        """Distinct entry values in (0, 1], plus 1.0, ascending."""
        # a sort and a mask of the first of each run of equal values: np.unique
        # would do the same, but its first call in a process costs about 1 MB
        vals = np.sort(np.concatenate((self._flat, [1.0])))
        keep = vals > 0.0
        keep[1:] &= vals[1:] != vals[:-1]
        return vals[keep]

    def copy(self):
        return Profile._of_flat(self.domain, self._flat.copy())

    def __repr__(self):
        return f"Profile({[np.round(v, 4).tolist() for v in self.levels]})"


def _thresholds(thresholds) -> np.ndarray:
    """``thresholds`` as a float array, or a ValueError naming the first outside (0, 1]."""
    ts = np.asarray(thresholds, dtype=float).reshape(-1)
    outside = ~((ts > 0.0) & (ts <= 1.0))
    if outside.any():
        raise ValueError(f"threshold must lie in (0, 1], got {ts[np.argmax(outside)]}")
    return ts


def profile_from_point(domain: LatticeDomain, y) -> Profile:
    """Indicator profile of a lattice point: weight 1 on levels <= y_i, else 0."""
    y = np.array(domain.require(y))
    rises = domain._rises
    return Profile._of_flat(domain, (domain._levels[rises] <= y[domain._level_coords[rises]])
                            .astype(float))


def level_at(level_weights, t: float) -> int:
    """Map a threshold t in (0, 1] to a level.

    Returns the highest level j with t <= weight(j); intervals are
    right-closed, so a tie at t picks the deeper level.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {t}")
    v = np.asarray(level_weights, dtype=float)
    return int(np.count_nonzero(v >= t))


def greedy_extension(f: OracleFunction, profile: Profile):
    """Evaluate the extension of f at ``profile`` by the greedy chain walk.

    Sorts all entries of ``profile`` in decreasing order.  Ties within one
    coordinate keep increasing-level order (required for the walk to be a
    lattice chain); ties across coordinates break by ascending coordinate
    index so results are reproducible.  Walks y(s) = y(s-1) + e_{i(s)} from
    0 and accumulates t(s) * (f(y(s)) - f(y(s-1))).

    Parameters
    ----------
    f : OracleFunction
    profile : Profile
        Must match f's domain.  Exactly r + 1 oracle calls are made,
        where r is the total entry count.

    Returns
    -------
    (value, weights) : (float, SeparableFunction)
        The extension value and the greedy marginal gains as a separable
        function with constant f(0): level j of coordinate i gets the gain
        of the walk's j-th raise of i.  ``value`` equals
        weights.constant + <weights, profile> when each coordinate's levels
        are exactly non-increasing; levels that rise by up to PROFILE_TOL
        move it by up to PROFILE_TOL times their gains.
    """
    d = f.domain
    if profile.domain != d:
        raise ValueError("profile domain does not match the function domain")
    order, walk, points = _greedy_walk(profile)
    values = f._batch(points)
    # accumulated in walk order, one entry at a time
    gains = values[1:] - values[:-1]
    value = np.cumsum(np.concatenate((values[:1], profile._flat[order] * gains)))[-1]
    return float(value), _separable_along(d, walk, values)


def _greedy_walk(profile: Profile):
    """The walk of ``greedy_extension`` at ``profile``: (order, walk, points).

    ``order`` lists the entries, as indices in (coordinate, level) order, by
    decreasing weight; equal weights keep (coordinate, level) order, so ties
    within a coordinate keep increasing-level order and ties across
    coordinates break by ascending index.  ``walk`` holds their coordinates
    and ``points`` the (r+1, n) lattice path from 0 raising them in turn.
    Raises a ValueError when two levels of one coordinate rise by more than
    PROFILE_TOL.
    """
    d = profile.domain
    weights = profile._flat
    coords = d._level_coords[d._rises]
    # a rise between two levels of one coordinate
    rising = (weights[1:] - weights[:-1] > PROFILE_TOL) & (coords[1:] == coords[:-1])
    if rising.any():
        i = int(coords[np.argmax(rising)])
        raise ValueError(f"profile coordinate {i} is not non-increasing: {profile.levels[i]}")
    order = np.argsort(-weights, kind="stable")
    walk = coords[order]
    return order, walk, _walk(d, walk)


def _walk(domain: LatticeDomain, increments: np.ndarray) -> np.ndarray:
    """The (r+1, n) points of the lattice path from 0 raising ``increments`` in turn."""
    steps = np.zeros((increments.size + 1, domain.n), dtype=np.int64)
    steps[np.arange(1, increments.size + 1), increments] = 1
    return np.cumsum(steps, axis=0)


def _separable_along(domain: LatticeDomain, increments: np.ndarray,
                     values: np.ndarray) -> SeparableFunction:
    """The separable function equal to ``values`` along the walk from 0 raising ``increments``.

    Its constant is values[0]; its increments are ``_gains_along``.
    """
    return SeparableFunction._of_increments(domain, float(values[0]),
                                            _gains_along(increments, values))


def _gains_along(increments: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The gains of the walk's steps in (coordinate, level) order.

    The j-th raise of coordinate i reaches level j, so that level's
    increment is the gain of that step.
    """
    return (values[1:] - values[:-1])[np.argsort(increments, kind="stable")]


class Chain:
    """Maximal increasing lattice path defined by its increment coordinates."""

    def __init__(self, domain: LatticeDomain, increments):
        incs = np.asarray(increments, dtype=np.int64).reshape(-1)
        if incs.size and (incs.min() < 0 or incs.max() >= domain.n):
            raise ValueError(f"increment coordinates must lie in [0, {domain.n})")
        counts = np.bincount(incs, minlength=domain.n)
        wrong = np.flatnonzero(counts != domain._k_max)
        if wrong.size:
            i = int(wrong[0])
            raise ValueError(
                f"coordinate {i} incremented {counts[i]} times, needs {domain.k_max[i]}")
        self._setup(domain, incs)

    @classmethod
    def _of_increments(cls, domain: LatticeDomain, incs: np.ndarray):
        """From an int64 array of increments that is known to make a chain, unchecked."""
        chain = cls.__new__(cls)
        chain._setup(domain, incs)
        return chain

    def _setup(self, domain: LatticeDomain, incs: np.ndarray):
        self.domain = domain
        self._incs = incs
        self._point_array = None
        self._points = None

    @functools.cached_property
    def increments(self) -> tuple:
        """The coordinate raised at each step, as a tuple of ints (computed once)."""
        return tuple(self._incs.tolist())

    def point_array(self) -> np.ndarray:
        """The r + 1 chain points as rows of an int64 array (computed once)."""
        if self._point_array is None:
            self._point_array = _walk(self.domain, self._incs)
        return self._point_array

    @property
    def points(self) -> List[tuple]:
        """The r + 1 chain points as tuples, from 0 to k_max (computed once)."""
        if self._points is None:
            self._points = [tuple(p) for p in self.point_array().tolist()]
        return self._points

    @property
    def length(self) -> int:
        return self._incs.size

    def index_of(self, y) -> int:
        return int(sum(y))

    def contains(self, y) -> bool:
        return self._contains(self.domain.require(y))

    def _contains(self, y: tuple) -> bool:
        """``contains`` for a domain point y given as a tuple of ints."""
        return tuple(self.point_array()[self.index_of(y)].tolist()) == y

    def __repr__(self):
        return f"Chain({list(self.increments)})"


def chain_containing(domain: LatticeDomain, y, mode: str = "canonical",
                     seed: Optional[int] = None, rng: Optional[random.Random] = None) -> Chain:
    """A chain through ``y``: raise coordinates to y, then on to k_max.

    canonical: coordinate 0 first to y_0, then 1 to y_1, ...; afterwards
    coordinate 0 up to its top level, then 1, ...  randomized: the before-y
    and after-y increment blocks are each shuffled uniformly (seeded).
    """
    return _chain_containing(domain, domain.require(y), mode, seed, rng)


def _chain_containing(domain: LatticeDomain, y: tuple, mode: str,
                      seed: Optional[int] = None, rng: Optional[random.Random] = None) -> Chain:
    """``chain_containing`` for a domain point y given as a tuple of ints.

    The chain is built through y, so its increments are not checked again.
    """
    coords = np.arange(domain.n)
    before, after = np.repeat(coords, y), np.repeat(coords, domain._k_max - y)
    if mode == "randomized":
        if rng is None:
            rng = random.Random(seed)
        before, after = before.tolist(), after.tolist()
        rng.shuffle(before)
        rng.shuffle(after)
    elif mode != "canonical":
        raise ValueError(f"unknown chain mode {mode!r}")
    # an empty list concatenates as float
    incs = np.concatenate((before, after)).astype(np.int64, copy=False)
    return Chain._of_increments(domain, incs)


def chain_lower_bound(f: OracleFunction, y, chain: Chain) -> SeparableFunction:
    """Separable lower bound of a submodular f, tight along ``chain``.

    The increment weights are the marginal gains of f along the chain; the
    result equals f at every chain point (in particular at y) and is <= f
    everywhere when f is submodular.  Exactly r + 1 oracle calls.
    """
    d = f.domain
    y = d.require(y)
    if chain.domain != d:
        raise ValueError("chain domain does not match the function domain")
    _require_on_chain(chain, y)
    return _separable_along(d, chain._incs, f._batch(chain.point_array()))


def _require_on_chain(chain: Chain, y: tuple):
    """Raise unless ``chain`` contains y, a domain point given as a tuple of ints."""
    if not chain._contains(y):
        raise ValueError(f"chain does not contain {y}; the bound would not be tight there")


def adjacent_chain_family(domain: LatticeDomain, y) -> List[Chain]:
    """O(n) chains through y covering all immediate predecessors/successors.

    Across the family, every coordinate that can step down at y appears as
    the increment directly before y in some chain, and every coordinate that
    can step up appears directly after y in some chain.
    """
    y = domain.require(y)
    befores = [i for i in range(domain.n) if y[i] >= 1]
    afters = [i for i in range(domain.n) if y[i] <= domain.sizes[i] - 2]
    count = max(len(befores), len(afters), 1)
    chains = []
    seen = set()
    for t in range(count):
        b = befores[t % len(befores)] if befores else None
        a = afters[t % len(afters)] if afters else None
        before = [i for i in range(domain.n) if i != b for _ in range(y[i])]
        if b is not None:
            before += [b] * y[b]
        after = []
        if a is not None:
            after += [a] * (domain.sizes[a] - 1 - y[a])
        after += [i for i in range(domain.n) if i != a
                  for _ in range(domain.sizes[i] - 1 - y[i])]
        key = tuple(before + after)
        if key not in seen:
            seen.add(key)
            chains.append(Chain(domain, key))
    return chains


def base_vertex_check(f: OracleFunction, weights: SeparableFunction,
                      tol: float = CHECK_TOL, cap=None) -> Verdict:
    """Verify greedy weights lie in the base region of a submodular f.

    Checks sum_i sum_{j<=x_i} w_i(j) <= f(x) - f(0) at every lattice point,
    with equality at k_max.  The weight constant is ignored; only the
    increment tables matter.
    """
    d = f.domain
    values = _Tabulation(f, cap, "base_vertex_check").values
    lhs = np.zeros(d.sizes)  # sum_i prefixes[i][x_i], added coordinate by coordinate from 0
    for i, prefix in enumerate(weights.prefixes):
        lhs += prefix.reshape([-1 if a == i else 1 for a in range(d.n)])
    rhs = values - values[d.zero]
    violated = (lhs > rhs + tol).reshape(-1)
    if violated.any():
        k = int(np.argmax(violated))  # the first violation, row-major
        x = tuple(int(c) for c in np.unravel_index(k, d.sizes))
        wit = Witness(x, -1, None, float(lhs[x] - rhs[x]), "base_inequality")
        return Verdict(False, wit, k + 1)
    gap = float(abs(lhs[d.k_max] - rhs[d.k_max]))
    if gap > tol:
        return Verdict(False, Witness(d.k_max, -1, None, gap, "base_equality"), d.num_points)
    return Verdict(True, None, d.num_points)
