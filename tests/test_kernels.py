"""The brute-force operations against the scalar scans they replaced.

Each of ``check_submodular``, ``check_dr``, ``check_monotone``,
``dr_violation``, ``second_difference_extremes``, ``base_vertex_check`` and
``brute_force_minimize`` tabulates its function once and works on array
slices of the table.  The scalar scans below are the earlier point-by-point
implementations, kept unchanged as references: verdicts, witnesses, counts
and returned values must agree bit for bit, ties included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmin as d
from dsmin.lattice import (CHECK_TOL, Verdict, Witness, second_difference_cross,
                          second_difference_within)
from conftest import coverage_function, quadratic_submodular

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


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------

def _bits(value):
    """A comparable form of a result in which floats compare by their bits."""
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, Witness):
        assert all(type(c) is int for c in value.point)
        assert type(value.i) is int and (value.j is None or type(value.j) is int)
        return ("witness", value.point, value.i, value.j, _bits(value.value), value.kind)
    if isinstance(value, Verdict):
        return ("verdict", value.holds, _bits(value.witness), value.checked)
    return value


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
        assert _bits(got) == _bits(ref(_counted(fn), **kwargs)), label
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
            assert _bits(got) == _bits(ref_base_vertex_check(_counted(fn), weights))
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
        assert _bits(got) == _bits(ref_base_vertex_check(_counted(f), weights))


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
