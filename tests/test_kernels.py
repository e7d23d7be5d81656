"""The brute-force operations against the scalar scans they replaced.

Each of ``check_submodular``, ``check_dr``, ``check_monotone``,
``dr_violation``, ``second_difference_extremes``, ``base_vertex_check`` and
``brute_force_minimize`` tabulates its function once and works on array
slices of the table.  The scalar scans below are the earlier point-by-point
implementations, kept unchanged as references: verdicts, witnesses, counts
and returned values must agree bit for bit, ties included.

``SeparableFunction`` keeps its increments and prefix sums as flat arrays,
and ``minimize_separable_cardinality`` is a min-plus step per coordinate over
them; both are checked bit for bit against the per-table formulas and the
triple-loop dynamic program they replaced.  The prefix sums are filled on
first read; they are checked to be bit for bit the per-table cumsums, with
+inf in the grid's padding, and never to be filled by arithmetic.

The coverage side's batch kernel gathers from a flat powers array; the
two-index gather it replaced, folded over coordinates in Python, is kept as a
reference, equal bit for bit.  ``SeparableFunction.values_at`` of one row is
checked against a left fold in the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmin as d
from dsmin.lattice import (CHECK_TOL, Verdict, Witness, second_difference_cross,
                          second_difference_within)
from conftest import bits, coverage_function, quadratic_submodular

sizes_st = st.lists(st.integers(2, 5), min_size=1, max_size=4)


# ---------------------------------------------------------------------------
# Scalar references (the scans as they were before tabulation)
# ---------------------------------------------------------------------------

def _scan_cross(f):
    """Max cross second difference and its argmax over all feasible (x, i<j)."""
    d = f.domain
    best = -math.inf
    best_wit = None
    checked = 0
    for x in d.points():
        for i in range(d.n - 1):
            if x[i] + 1 > d.sizes[i] - 1:
                continue
            for j in range(i + 1, d.n):
                if x[j] + 1 > d.sizes[j] - 1:
                    continue
                val = second_difference_cross(f, x, i, j)
                checked += 1
                if val > best:
                    best = val
                    best_wit = Witness(x, i, j, val, "cross")
    return best, best_wit, checked


def _scan_within(f):
    d = f.domain
    best = -math.inf
    best_wit = None
    checked = 0
    for x in d.points():
        for i in range(d.n):
            if x[i] + 2 > d.sizes[i] - 1:
                continue
            val = second_difference_within(f, x, i)
            checked += 1
            if val > best:
                best = val
                best_wit = Witness(x, i, None, val, "within")
    return best, best_wit, checked


def ref_check_submodular(f, tol=CHECK_TOL, cap=None):
    f.domain.check_cap(cap, what="check_submodular")
    best, wit, checked = _scan_cross(f)
    if best > tol:
        return Verdict(False, wit, checked)
    return Verdict(True, None, checked)


def ref_check_dr(f, tol=CHECK_TOL, cap=None):
    f.domain.check_cap(cap, what="check_dr")
    cross_best, cross_wit, c1 = _scan_cross(f)
    within_best, within_wit, c2 = _scan_within(f)
    best = max(cross_best, within_best)
    if best > tol:
        wit = cross_wit if cross_best >= within_best else within_wit
        return Verdict(False, wit, c1 + c2)
    return Verdict(True, None, c1 + c2)


def ref_check_monotone(f, tol=CHECK_TOL, cap=None):
    f.domain.check_cap(cap, what="check_monotone")
    d = f.domain
    worst = math.inf
    wit = None
    checked = 0
    for x in d.points():
        for i in range(d.n):
            if x[i] + 1 > d.sizes[i] - 1:
                continue
            marginal = f(d.shift(x, i, 1)) - f(x)
            checked += 1
            if marginal < worst:
                worst = marginal
                wit = Witness(x, i, None, marginal, "monotone")
    if worst < -tol:
        return Verdict(False, wit, checked)
    return Verdict(True, None, checked)


def ref_dr_violation(f, cap=None):
    d = f.domain
    d.check_cap(cap, what="dr_violation")
    worst = 0.0
    for x in d.points():
        for i in range(d.n):
            if x[i] + 2 > d.sizes[i] - 1:
                continue
            worst = max(worst, second_difference_within(f, x, i))
    return worst


def ref_second_difference_extremes(v, cap=None):
    d = v.domain
    d.check_cap(cap, what="second_difference_extremes")
    best = 0.0
    wit = None
    for x in d.points():
        for i in range(d.n - 1):
            if x[i] + 1 > d.sizes[i] - 1:
                continue
            for j in range(i + 1, d.n):
                if x[j] + 1 > d.sizes[j] - 1:
                    continue
                val = abs(second_difference_cross(v, x, i, j))
                if val > best:
                    best = val
                    wit = Witness(x, i, j, val, "cross_abs")
    return best, wit


def ref_base_vertex_check(f, weights, tol=CHECK_TOL, cap=None):
    d = f.domain
    d.check_cap(cap, what="base_vertex_check")
    f0 = f(d.zero)
    checked = 0
    for x in d.points():
        lhs = sum(weights.prefixes[i][x[i]] for i in range(d.n))
        rhs = f(x) - f0
        checked += 1
        if lhs > rhs + tol:
            return Verdict(False, Witness(x, -1, None, lhs - rhs, "base_inequality"), checked)
    top = sum(weights.prefixes[i][d.sizes[i] - 1] for i in range(d.n))
    gap = abs(top - (f(d.k_max) - f0))
    if gap > tol:
        return Verdict(False, Witness(d.k_max, -1, None, gap, "base_equality"), checked)
    return Verdict(True, None, checked)


def ref_brute_force_minimize(v, cap=None):
    d = v.domain
    d.check_cap(cap, what="brute_force_minimize")
    best_point, best_value = None, math.inf
    for x in d.points():
        val = v(x)
        if val < best_value:
            best_point, best_value = x, val
    return best_point, best_value


def ref_minimize_separable_cardinality(s, domain, budget):
    d = domain or s.domain
    if d != s.domain:
        raise ValueError("domain does not match the separable function")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    total_levels = sum(k - 1 for k in d.sizes)
    b_cap = min(budget, total_levels)

    # best[i][b]: min over x_i..x_{n-1} with sum <= b of their prefix sums
    best = [np.zeros(b_cap + 1) for _ in range(d.n + 1)]
    for i in range(d.n - 1, -1, -1):
        pref = s.prefixes[i]
        for b in range(b_cap + 1):
            lmax = min(d.sizes[i] - 1, b)
            best[i][b] = min(pref[level] + best[i + 1][b - level]
                             for level in range(lmax + 1))

    point = []
    b = b_cap
    for i in range(d.n):
        pref = s.prefixes[i]
        lmax = min(d.sizes[i] - 1, b)
        target = best[i][b]
        for level in range(lmax + 1):
            if pref[level] + best[i + 1][b - level] == target:
                point.append(level)
                b -= level
                break
    return tuple(point), float(s.constant + best[0][b_cap])


def ref_coverage_kernel(probs, weights, sizes):
    """The coverage side's batch kernel indexing an (n, max k, regions) powers array.

    The miss factors are multiplied by an explicit left fold over the
    coordinates, one elementwise product per coordinate, so the reference
    does not share numpy's reduction path with the kernel.
    """
    levels = np.arange(max(sizes), dtype=float)
    powers = (1.0 - probs)[:, None, :] ** levels[None, :, None]
    coords = np.arange(len(sizes))

    def eval_coverage(X):
        factors = powers[coords, X]
        undetected = factors[:, 0]
        for i in range(1, len(sizes)):
            undetected = undetected * factors[:, i]
        return ((1.0 - undetected) * weights).sum(axis=1)

    return eval_coverage


def _counted(fn):
    """A counting copy of fn, so a reference run leaves fn's counter alone."""
    if fn._batch_fn is not None:
        return d.OracleFunction(fn.domain, batch_fn=fn._batch_fn)
    return d.OracleFunction(fn.domain, fn._fn)


def _weights(f, seed):
    """Greedy weights of f at a random profile: base vertices when f is submodular."""
    rng = np.random.default_rng(seed)
    levels = [np.sort(rng.uniform(size=k - 1))[::-1] for k in f.domain.sizes]
    return d.greedy_extension(_counted(f), d.Profile(f.domain, levels))[1]


CASES = {
    "check_submodular": (d.check_submodular, ref_check_submodular),
    "check_dr": (d.check_dr, ref_check_dr),
    "check_monotone": (d.check_monotone, ref_check_monotone),
    "dr_violation": (d.dr_violation, ref_dr_violation),
    "second_difference_extremes": (d.second_difference_extremes,
                                   ref_second_difference_extremes),
    "brute_force_minimize": (d.brute_force_minimize, ref_brute_force_minimize),
}


def _assert_matches(fn, tol=CHECK_TOL):
    """Every operation on fn equals its scalar reference and makes exactly N calls."""
    for label, (new, ref) in CASES.items():
        kwargs = {"tol": tol} if label.startswith("check") else {}
        fn.reset_count()
        got = new(fn, **kwargs)
        assert bits(got) == bits(ref(_counted(fn), **kwargs)), label
        assert fn.call_count == fn.domain.num_points, label


def _table(sizes, seed, integer):
    rng = np.random.default_rng(seed)
    dom = d.LatticeDomain(sizes)
    values = rng.integers(-3, 4, size=dom.num_points) if integer else rng.normal(
        size=dom.num_points)
    return d.TableFunction(dom, values)


# ---------------------------------------------------------------------------
# Agreement with the references
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), integer=st.booleans(),
       tol=st.sampled_from([CHECK_TOL, 0.0, 1.0]))
def test_tables_match_scalar_scans(sizes, seed, integer, tol):
    """Integer tables make ties in every scan; float tables rarely tie."""
    _assert_matches(_table(sizes, seed, integer), tol=tol)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 9), seed=st.integers(0, 10**6), integer=st.booleans())
def test_one_coordinate_domains(k, seed, integer):
    """n = 1: no cross pairs at all, and no within differences when k = 2."""
    fn = _table([k], seed, integer)
    _assert_matches(fn)
    assert d.check_submodular(fn) == Verdict(True, None, 0)
    assert d.second_difference_extremes(fn) == (0.0, None)


@pytest.mark.parametrize("seed", range(4))
def test_structured_oracles_match_scalar_scans(seed):
    """Oracles without a batch form, composites, and functions that pass every check."""
    quad, _, _ = quadratic_submodular(seed, sizes=(3, 4, 3), integer=True)
    cov = coverage_function(seed, sizes=(3, 4, 3))
    sep = d.SeparableFunction(d.LatticeDomain([3, 4, 2]), 0.5,
                              [[1.0, -1.0], [0.0, 0.0, 2.0], [-0.0]])
    for fn in (quad, cov, cov - quad, 2.0 * cov + 1.0, sep, d.dr_split(cov, 0.5).residual):
        _assert_matches(fn)


def test_constant_function_ties_everywhere():
    fn = d.OracleFunction(d.LatticeDomain([3, 2, 3]), lambda x: 0.0)
    _assert_matches(fn)
    assert d.brute_force_minimize(fn) == ((0, 0, 0), 0.0)


@settings(max_examples=40, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), integer=st.booleans())
def test_base_vertex_check_matches_scalar_scan(sizes, seed, integer):
    """Random tables fail part-way through the scan; submodular functions pass."""
    quad = quadratic_submodular(seed, sizes=sizes, integer=integer)[0]
    for fn in (_table(sizes, seed, integer), quad):
        for weights in (_weights(fn, seed), _weights(fn, seed + 1)):
            fn.reset_count()
            got = d.base_vertex_check(fn, weights)
            assert bits(got) == bits(ref_base_vertex_check(_counted(fn), weights))
            assert fn.call_count == fn.domain.num_points


def test_base_vertex_check_failures_part_way_and_at_the_top():
    dom = d.LatticeDomain([3, 3])
    f = d.TableFunction(dom, [0, 1, 2, 1, 2, 3, 2, 3, 9])
    inside = d.SeparableFunction(dom, 0.0, [[1.0, 1.0], [1.0, 1.5]])
    top_only = d.SeparableFunction(dom, 0.0, [[1.0, 1.0], [1.0, 1.0]])
    for weights, kind, checked in ((inside, "base_inequality", 3),
                                   (top_only, "base_equality", 9)):
        got = d.base_vertex_check(f, weights)
        assert not got and got.witness.kind == kind and got.checked == checked
        assert bits(got) == bits(ref_base_vertex_check(_counted(f), weights))


# ---------------------------------------------------------------------------
# Call counts
# ---------------------------------------------------------------------------

def _all_operations(fn, cap=None):
    weights = d.SeparableFunction.zero(fn.domain)
    return [
        lambda: d.check_submodular(fn, cap=cap),
        lambda: d.check_dr(fn, cap=cap),
        lambda: d.check_monotone(fn, cap=cap),
        lambda: d.dr_violation(fn, cap=cap),
        lambda: d.second_difference_extremes(fn, cap=cap),
        lambda: d.base_vertex_check(fn, weights, cap=cap),
        lambda: d.brute_force_minimize(fn, cap=cap),
    ]


def test_each_operation_is_one_tabulation_of_n_calls():
    f = coverage_function(3, sizes=(3, 4, 2))
    g = d.TableFunction(f.domain, np.arange(24.0))
    v = f - g
    for run in _all_operations(v):
        for fn in (f, g, v):
            fn.reset_count()
        run()
        assert (f.call_count, g.call_count, v.call_count) == (24, 24, 24)


def test_above_the_cap_nothing_is_counted():
    fn = d.TableFunction(d.LatticeDomain([4, 4]), np.arange(16.0))
    for run in _all_operations(fn, cap=15):
        with pytest.raises(d.CapExceededError):
            run()
        assert fn.call_count == 0


# ---------------------------------------------------------------------------
# Separable functions: the flat layout and the cardinality DP
# ---------------------------------------------------------------------------

def _tables(sizes, seed, integer):
    """Increment tables; integer ones tie often and hold -0.0, which a sum can lose."""
    rng = np.random.default_rng(seed)
    if integer:
        return [np.where(rng.random(k - 1) < 0.2, -0.0, rng.integers(-2, 3, size=k - 1) * 1.0)
                for k in sizes]
    return [rng.normal(size=k - 1) for k in sizes]


def _ref_prefixes(tables):
    return [np.concatenate(([0.0], np.cumsum(t))) for t in tables]


def _assert_flat_layout(s, constant, tables):
    """s's tables, prefixes, evaluation and minima against the per-table formulas, bitwise."""
    prefixes = _ref_prefixes(tables)
    assert bits(s.constant) == bits(float(constant))
    assert [t.tobytes() for t in s.tables] == [np.asarray(t).tobytes() for t in tables]
    assert [p.tobytes() for p in s.prefixes] == [p.tobytes() for p in prefixes]
    X = s.domain.point_array()
    expected = [s.constant + sum(prefixes[i][x[i]] for i in range(s.domain.n)) for x in X]
    assert s.values_at(X).tobytes() == np.array(expected).tobytes()
    point = tuple(int(np.argmin(p)) for p in prefixes)
    assert s.argmin_tables() == point
    value = float(s.constant + sum(prefixes[i][point[i]] for i in range(s.domain.n)))
    assert bits(d.minimize_separable(s)) == bits((point, value))


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), integer=st.booleans(),
       c=st.sampled_from([2.5, -1.0, 0.0]))
def test_flat_layout_and_arithmetic_match_per_table_formulas(sizes, seed, integer, c):
    dom = d.LatticeDomain(sizes)
    ta, tb = _tables(sizes, seed, integer), _tables(sizes, seed + 1, integer)
    a, b = d.SeparableFunction(dom, 0.75, ta), d.SeparableFunction(dom, -0.5, tb)
    _assert_flat_layout(a, 0.75, ta)
    _assert_flat_layout(a + b, 0.75 + -0.5, [x + y for x, y in zip(ta, tb)])
    _assert_flat_layout(a - b, 0.75 - -0.5, [x - y for x, y in zip(ta, tb)])
    _assert_flat_layout(c * a, c * 0.75, [c * x for x in ta])
    _assert_flat_layout(a + c, 0.75 + c, ta)
    curves = [np.concatenate(([float(i)], t)) for i, t in enumerate(ta)]
    _assert_flat_layout(d.SeparableFunction.from_level_values(dom, curves, 0.25),
                        0.25 + sum(float(c[0]) for c in curves), [np.diff(c) for c in curves])


TABLES = ("_flat_prefixes", "_prefix_grid")


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), integer=st.booleans(),
       first=st.sampled_from(TABLES + ("prefixes",)))
def test_prefix_tables_are_filled_on_first_read(sizes, seed, integer, first):
    """Arithmetic leaves a result's prefix tables unfilled; any read fills the
    grid, bit for bit the per-table cumsums with +inf in the padding, and the
    flat table is gathered from it."""
    dom = d.LatticeDomain(sizes)
    ta, tb = _tables(sizes, seed, integer), _tables(sizes, seed + 1, integer)
    a, b = d.SeparableFunction(dom, 0.75, ta), d.SeparableFunction(dom, -0.5, tb)
    levels = np.concatenate([np.concatenate(([0.25], t)) for t in ta])
    results = [a + b, a - b, 2.5 * a, a + 1.0, a - 1, -a,
               d.SeparableFunction._of_levels(dom, levels)]
    for s in [a, b] + results:
        assert not set(TABLES) & set(s.__dict__)
    s = results[0]
    s.tables  # the increments alone
    assert not set(TABLES) & set(s.__dict__)
    getattr(s, first)
    assert "_prefix_grid" in s.__dict__
    filled = {name: getattr(s, name) for name in TABLES}
    prefixes = _ref_prefixes([x + y for x, y in zip(ta, tb)])
    grid = np.full((dom.n, max(sizes)), np.inf)
    for i, p in enumerate(prefixes):
        grid[i, :p.size] = p
    assert filled["_flat_prefixes"].tobytes() == np.concatenate(prefixes).tobytes()
    assert filled["_prefix_grid"].tobytes() == grid.tobytes()
    # later reads are the same arrays, and the per-coordinate views split them unchanged
    assert all(getattr(s, name) is filled[name] for name in TABLES)
    _assert_flat_layout(s, 0.75 + -0.5, [x + y for x, y in zip(ta, tb)])


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=6), seed=st.integers(0, 10**6),
       integer=st.booleans())
def test_cardinality_dp_matches_the_scalar_reference(sizes, seed, integer):
    """Every budget from 0 to one past the total, the tie rule included."""
    s = d.SeparableFunction(d.LatticeDomain(sizes), 0.5, _tables(sizes, seed, integer))
    for budget in range(sum(sizes) - len(sizes) + 2):
        got = d.minimize_separable_cardinality(s, None, budget)
        assert bits(got) == bits(ref_minimize_separable_cardinality(s, None, budget)), budget


# ---------------------------------------------------------------------------
# The coverage kernel
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 7), min_size=1, max_size=40), regions=st.integers(1, 9),
       m=st.one_of(st.sampled_from([1, 2]), st.integers(1, 1100)), seed=st.integers(0, 10**6))
def test_coverage_kernel_matches_the_indexed_reference(sizes, regions, m, seed):
    """Unequal sizes leave padding levels; some rows sit at k_max in every coordinate.

    Up to 40 coordinates and batches of one or two rows as well as long ones:
    the kernel's coordinate-major fold must be the left fold bit for bit.
    """
    rng = np.random.default_rng(seed)
    dom = d.LatticeDomain(sizes)
    probs = rng.uniform(0.0, 1.0, size=(dom.n, regions))
    weights = rng.uniform(-1.0, 2.0, size=regions)
    spec = {"kind": "coverage_tradeoff", "probs": probs.tolist(), "weights": weights.tolist(),
            "cost_tables": [list(range(k)) for k in sizes]}
    g = d.build_function(spec, dom, "g", "g")
    X = rng.integers(0, sizes, size=(m, dom.n))
    X[rng.random(m) < 0.1] = dom.k_max
    X[-1] = dom.k_max
    expected = ref_coverage_kernel(probs, weights, sizes)(X)
    assert g.batch(X).tobytes() == expected.tobytes()
    # a row's value does not depend on the batch it is evaluated in
    assert g.batch(X[-1:]).tobytes() == expected[-1:].tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_separable_values_at_one_row_is_the_left_fold(n):
    """``values_at`` of a single row adds its terms left to right, bit for bit.

    A pairwise sum would not: ``np.add.reduce`` over the 40 terms of a
    (40, 1) array splits them into blocks and differs from the left fold in
    most of these cases, so the separable kernel must not be rewritten that
    way (multiply, as in the coverage kernel, has no pairwise path).
    """
    rng = np.random.default_rng(n)
    pairwise_differs = 0
    for _ in range(200):
        sizes = rng.integers(2, 7, size=n).tolist()
        dom = d.LatticeDomain(sizes)
        s = d.SeparableFunction(dom, float(rng.normal()), [rng.normal(size=k - 1) for k in sizes])
        x = rng.integers(0, sizes)
        terms = [float(s.prefixes[i][level]) for i, level in enumerate(x.tolist())]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        got = s.values_at(x[None, :])
        assert got.shape == (1,)
        assert bits(float(got[0])) == bits(s.constant + total)
        pairwise = np.add.reduce(np.array(terms)[:, None], axis=0)[0]
        pairwise_differs += pairwise != total
    if n == 40:
        assert pairwise_differs > 100
