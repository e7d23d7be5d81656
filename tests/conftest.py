"""Shared ensemble builders for the test suite.

Random function families with known structure:
  - quadratics with nonpositive off-diagonal coefficients are submodular;
    nonpositive diagonals make them DR as well
  - sums of square roots of nonnegative linear forms are monotone DR
  - coverage objectives are monotone DR
All builders are deterministic given the seed.
"""

import math

import numpy as np

import dsmin as d
from dsmin.lattice import Verdict, Witness


def quadratic_submodular(seed, sizes=(4, 4, 4), dr=False, integer=False):
    """x'Ax + b'x with off-diagonal A <= 0; diagonal <= 0 when dr."""
    rng = np.random.default_rng(seed)
    n = len(sizes)
    if integer:
        upper = -rng.integers(0, 3, size=(n, n)).astype(float)
    else:
        upper = -rng.uniform(0.05, 1.0, size=(n, n))
    A = np.triu(upper, 1)
    A = A + A.T
    if dr:
        diag = -rng.uniform(0.0, 1.0, size=n)
    elif integer:
        diag = rng.integers(-2, 3, size=n).astype(float)
    else:
        diag = rng.uniform(-1.0, 1.5, size=n)
    A[np.diag_indices(n)] = diag
    b = rng.integers(-3, 4, size=n).astype(float) if integer else rng.uniform(-2, 2, size=n)
    dom = d.LatticeDomain(sizes)

    def ev(x, A=A, b=b):
        arr = np.asarray(x, dtype=float)
        return float(arr @ A @ arr + b @ arr)

    return d.OracleFunction(dom, ev), A, b


def concave_linear(seed, sizes=(4, 4, 4), terms=3):
    """Monotone DR-submodular: sum of square roots of nonnegative linear forms."""
    rng = np.random.default_rng(seed)
    n = len(sizes)
    coeffs = rng.uniform(0.0, 1.0, size=(terms, n))
    us = rng.uniform(0.3, 1.5, size=terms)
    dom = d.LatticeDomain(sizes)

    def ev(x, coeffs=coeffs, us=us):
        arr = np.asarray(x, dtype=float)
        return float(us @ np.sqrt(coeffs @ arr))

    return d.OracleFunction(dom, ev)


def coverage_function(seed, sizes=(4, 4, 4), regions=4):
    """Monotone DR-submodular coverage objective, 0 at 0."""
    rng = np.random.default_rng(seed)
    n = len(sizes)
    miss = 1.0 - rng.uniform(0.05, 0.35, size=(n, regions))
    weights = rng.uniform(0.5, 2.0, size=regions)
    dom = d.LatticeDomain(sizes)

    def ev(x, miss=miss, weights=weights):
        arr = np.asarray(x, dtype=float).reshape(-1, 1)
        return float(weights @ (1.0 - np.prod(miss ** arr, axis=0)))

    return d.OracleFunction(dom, ev)


def random_separable(seed, sizes=(4, 4, 4), span=2.0):
    rng = np.random.default_rng(seed)
    dom = d.LatticeDomain(sizes)
    tables = [rng.uniform(-span, span, size=k - 1) for k in sizes]
    return d.SeparableFunction(dom, float(rng.uniform(-1, 1)), tables)


def dr_ensemble(count, sizes=(4, 4, 4), seed0=0):
    """Mixed DR-submodular functions."""
    out = []
    for s in range(count):
        kind = s % 3
        if kind == 0:
            out.append(concave_linear(seed0 + s, sizes))
        elif kind == 1:
            out.append(coverage_function(seed0 + s, sizes))
        else:
            fn, _, _ = quadratic_submodular(seed0 + s, sizes, dr=True)
            out.append(fn)
    return out


def submodular_ensemble(count, sizes=(4, 4, 4), seed0=100):
    """Mixed submodular functions, DR not guaranteed."""
    out = []
    for s in range(count):
        if s % 2 == 0:
            fn, _, _ = quadratic_submodular(seed0 + s, sizes)
            out.append(fn)
        else:
            out.append(coverage_function(seed0 + s, sizes))
    return out


def nonnegative_submodular(seed, sizes=(4, 4, 4)):
    """Random submodular table shifted so its minimum is exactly 0."""
    fn, _, _ = quadratic_submodular(seed, sizes)
    dom = fn.domain
    table = d.table_of(fn)
    table = table - table.min()
    return d.TableFunction(dom, table)


def ds_ensemble(count, sizes=(4, 4, 4), seed0=0):
    """DS problems from the coverage and concave-of-linear generators."""
    problems = []
    half = count // 2
    for kind, n, base in (("coverage", half, seed0),
                          ("concave_of_linear_sums", count - half, seed0 + 1)):
        for spec in d.generate_ensemble(kind, {"count": n, "sizes": sizes}, seed=base):
            problem, options = d.build_problem(spec, validate=False)
            problems.append((problem, options))
    return problems


def sqrt_sum_problem():
    """The toy: f = sqrt(x1 + x2), g = x1 + x2 on {0,1,2}^2, min -2 at (2,2)."""
    dom = d.LatticeDomain([3, 3])
    f = d.OracleFunction(dom, lambda x: math.sqrt(x[0] + x[1]))
    g = d.OracleFunction(dom, lambda x: float(x[0] + x[1]))
    return d.DsProblem(f, g)


def bits(value):
    """A comparable form of a result in which floats compare by their bits."""
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, Witness):
        assert all(type(c) is int for c in value.point)
        assert type(value.i) is int and (value.j is None or type(value.j) is int)
        return ("witness", value.point, value.i, value.j, bits(value.value), value.kind)
    if isinstance(value, Verdict):
        return ("verdict", value.holds, bits(value.witness), value.checked)
    return value
