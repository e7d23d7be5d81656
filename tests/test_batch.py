"""Batched oracle evaluation: ``f.batch(X)`` against one call per row.

For every oracle kind a batch must return the scalar values bit for bit and
count one call per row; a bad batch must raise DomainError and count nothing.
The layers that evaluate known point sets in one batch are checked against
scalar references (the per-point loops they replaced) for equal results and
equal call counts.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmin as d
from conftest import bits, coverage_function, quadratic_submodular

sizes_st = st.lists(st.integers(2, 5), min_size=1, max_size=4)


def _coverage_g(sizes, seed):
    spec = d.generate_ensemble("coverage", {"count": 1, "sizes": sizes, "regions": 5},
                               seed=seed)[0]
    problem, _ = d.build_problem(spec, validate=False)
    return problem


def _kinds(sizes, seed):
    """(label, oracle, parents) for every kind of oracle, with or without a batch form."""
    rng = np.random.default_rng(seed)
    dom = d.LatticeDomain(sizes)
    table = d.TableFunction(dom, rng.normal(size=dom.num_points))
    sep = d.SeparableFunction(dom, float(rng.normal()),
                              [rng.normal(size=k - 1) for k in sizes])
    n = len(sizes)
    A = rng.normal(size=(n, n))
    quad = d.build_function({"kind": "quadratic", "A": (A + A.T).tolist(),
                             "b": rng.normal(size=n).tolist(), "c": 0.5},
                            dom, "f", "f")
    problem = _coverage_g(sizes, seed)
    cov = problem.g
    user = d.OracleFunction(dom, lambda x: math.sqrt(sum(x)) - 0.1 * x[0])
    residual = d.dr_split(cov, 0.75).residual
    return [
        ("table", table, []),
        ("separable", sep, []),
        ("quadratic", quad, []),
        ("coverage_g", cov, []),
        ("coverage_f", problem.f, []),
        ("user", user, []),
        ("sum", cov + table, [cov, table]),
        ("difference", quad - sep, [quad, sep]),
        ("plus_constant", cov + 1.25, [cov]),
        ("minus_constant", table - 0.3, [table]),
        ("scaled", 2.5 * quad, [quad]),
        ("negated", -cov, [cov]),
        ("dr_residual", residual, [cov]),
        ("min_marginal_part", d.min_marginal_decomposition(residual).monotone_part, [residual]),
        ("harmonic_part", d.harmonic_decomposition(table).monotone_part, [table]),
        ("v_oracle", problem.v_oracle(), [problem.f, problem.g]),
    ]


def _rows(sizes, m, seed):
    return np.random.default_rng(seed + 1).integers(0, sizes, size=(m, len(sizes)))


@settings(max_examples=40, deadline=None)
@given(sizes=sizes_st, m=st.integers(0, 12), seed=st.integers(0, 10**6))
def test_batch_equals_scalar_bitwise_and_counts_rows(sizes, m, seed):
    X = _rows(sizes, m, seed)
    for label, fn, parents in _kinds(sizes, seed):
        before = fn.call_count
        parents_before = [p.call_count for p in parents]
        got = fn.batch(X)
        assert fn.call_count - before == m, label
        assert [p.call_count - c for p, c in zip(parents, parents_before)] == [m] * len(parents)
        expected = np.array([fn(tuple(x)) for x in X.tolist()], dtype=float)
        assert got.shape == (m,) and got.dtype == np.float64, label
        assert got.tobytes() == expected.tobytes(), label


@pytest.mark.parametrize("seed", range(3))
def test_batch_seeded_wide_coverage(seed):
    """Long rows, many regions: the coverage sum must not depend on the batch shape."""
    sizes = (6,) * 40
    problem = _coverage_g(sizes, seed)
    X = _rows(sizes, 81, seed)
    for fn in (problem.f, problem.g, problem.v_oracle()):
        scalar = np.array([fn(tuple(x)) for x in X.tolist()])
        assert fn.batch(X).tobytes() == scalar.tobytes()
        assert fn.batch(X[:7]).tobytes() == scalar[:7].tobytes()


def test_batch_accepts_lists_and_integral_floats():
    fn = coverage_function(0, sizes=(3, 3))
    rows = [[0, 1], [2, 2]]
    expected = [fn((0, 1)), fn((2, 2))]
    assert fn.batch(rows).tolist() == expected
    assert fn.batch(np.array(rows, dtype=float)).tolist() == expected
    assert fn.batch(np.zeros((0, 2), dtype=int)).shape == (0,)


@pytest.mark.parametrize("bad", [
    [[0, 3]],                      # level above the domain
    [[-1, 0]],                     # negative level
    [[0, 1], [1, 0], [2, 5]],      # one bad row among good ones
    [[0, 1, 0]],                   # wrong width
    [0, 1],                        # not a 2-D array
    np.array([[0.5, 1.0]]),        # non-integer coordinate
    np.array([[np.nan, 1.0]]),
    np.array([[True, False]]),
    np.array([[np.inf, 0.0]]),     # refused before the int64 cast, which would wrap them
    np.array([[-np.inf, 0.0]]),
    np.array([[1e300, 0.0]]),
])
def test_bad_batch_raises_and_counts_nothing(bad):
    dom = d.LatticeDomain([3, 3])
    base = d.TableFunction(dom, np.arange(9.0))
    composite = base - 1.0
    with pytest.raises(d.DomainError):
        composite.batch(bad)
    assert composite.call_count == 0 and base.call_count == 0


def _built_in_and_scalar_only():
    dom = d.LatticeDomain([3, 3])
    return [d.TableFunction(dom, np.arange(9.0)),
            d.OracleFunction(dom, lambda x: float(3 * x[0] + x[1]))]


@pytest.mark.parametrize("bad", [
    (1.5, 0), (1, 0.5),                                   # fractional
    (math.nan, 0), (math.inf, 0), (-math.inf, 0), (1e300, 0),
    (True, False),                                        # booleans
    (True, 0), (0, True), (np.True_, 1), (1.0, True),     # booleans mixed with numbers
    (0, 1, 0), (0,), 4,                                   # wrong width
    ((0, 1), 0), ("a", 0), (None, 0),                     # ragged, non-numeric
    (10**30, 0), (0, -10**30),                            # integers beyond int64
], ids=repr)
def test_call_and_batch_of_one_refuse_the_same_points(bad):
    for f in _built_in_and_scalar_only():
        with pytest.raises(d.DomainError):
            f(bad)
        with pytest.raises(d.DomainError):
            f.batch([bad])
        assert f.call_count == 0


@pytest.mark.parametrize("bad", [(10**30, 0), (0, -10**30)], ids=repr)
def test_integers_beyond_int64_are_outside_the_domain(bad):
    f = d.TableFunction(d.LatticeDomain([3, 3]), np.arange(9.0))
    for attempt in (lambda: f(bad), lambda: f.batch([bad])):
        with pytest.raises(d.DomainError, match=r"point .* outside domain"):
            attempt()
    assert f.call_count == 0


def test_call_and_batch_of_one_accept_the_same_points():
    for f in _built_in_and_scalar_only():
        for x in [(2, 1), (2.0, 1.0), (np.int64(2), np.float64(1.0)), np.array([2, 1])]:
            assert f(x) == f.batch([x])[0] == 7.0
        assert f.call_count == 8


def test_oracle_needs_a_form():
    dom = d.LatticeDomain([3])
    with pytest.raises(ValueError, match="fn or batch_fn"):
        d.OracleFunction(dom)
    both = d.OracleFunction(dom, lambda x: 1.0, batch_fn=lambda X: np.zeros(len(X)))
    assert both((1,)) == 0.0  # batch_fn is used when both are given


@pytest.mark.filterwarnings("error")
def test_large_finite_values_pass_without_warnings():
    # their sum of squares overflows, which must not surface as a numpy warning
    f = d.TableFunction(d.LatticeDomain([2]), [1e200, -1e308])
    assert f.batch([[0], [1]]).tolist() == [1e200, -1e308]
    assert f((1,)) == -1e308


def test_batch_fn_with_wrong_length_is_refused():
    fn = d.OracleFunction(d.LatticeDomain([3]), lambda x: 0.0, batch_fn=lambda X: np.zeros(1))
    with pytest.raises(ValueError, match="shape"):
        fn.batch([[0], [1]])


def test_table_of_is_one_batch_in_row_major_order():
    fn = quadratic_submodular(4, sizes=(3, 2, 4))[0]
    table = d.table_of(fn)
    assert fn.call_count == fn.domain.num_points
    assert table.tolist() == [fn(x) for x in fn.domain.points()]
    with pytest.raises(d.CapExceededError):
        d.table_of(fn, cap=10)


# ---------------------------------------------------------------------------
# Layers: scalar references of the per-point loops the batches replaced
# ---------------------------------------------------------------------------

def _ref_dr_upper_bound(h, x, variant):
    dom = h.domain

    def axis(i, level):
        return tuple(level if j == i else 0 for j in range(dom.n))

    def top(i, level):
        return tuple(level if j == i else k for j, k in enumerate(dom.k_max))

    hx = h(x)
    h0 = h(dom.zero) if variant == "grow1" else None
    htop = h(dom.k_max) if variant == "grow2" else None
    contribs = []
    for i, k in enumerate(dom.sizes):
        phi = np.zeros(k)
        for level in range(k):
            if level == x[i]:
                continue
            if level < x[i]:
                if variant in ("grow1", "tight1"):
                    phi[level] = -(hx - h(dom.shift(x, i, level - x[i])))
                elif variant == "grow2":
                    phi[level] = -(htop - h(top(i, k - 1 - (x[i] - level))))
                else:
                    phi[level] = h(top(i, level)) - h(top(i, x[i]))
            elif variant == "grow1":
                phi[level] = h(axis(i, level - x[i])) - h0
            elif variant == "tight1":
                phi[level] = h(axis(i, level)) - h(axis(i, x[i]))
            else:
                phi[level] = h(dom.shift(x, i, level - x[i])) - hx
        contribs.append(phi)
    return hx + sum(float(p[0]) for p in contribs), [np.diff(p) for p in contribs]


def _ref_double_greedy(g):
    dom = g.domain
    a, b = list(dom.zero), list(dom.k_max)
    for i in range(dom.n):
        ga, gb = g(tuple(a)), g(tuple(b))
        up_gain, up_level, down_gain, down_level = 0.0, a[i], 0.0, b[i]
        for level in range(a[i], b[i] + 1):
            if level != a[i]:
                gain = g(tuple(a[:i] + [level] + a[i + 1:])) - ga
                if gain > up_gain:
                    up_gain, up_level = gain, level
            if level != b[i]:
                gain = g(tuple(b[:i] + [level] + b[i + 1:])) - gb
                if gain > down_gain:
                    down_gain, down_level = gain, level
        a[i] = b[i] = up_level if up_gain >= down_gain else down_level
    return tuple(a), g(tuple(a))


def _ref_greedy_extension(f, profile):
    dom = f.domain
    entries = sorted(((v[j - 1], i, j) for i, v in enumerate(profile.levels)
                      for j in range(1, v.size + 1)), key=lambda e: (-e[0], e[1], e[2]))
    y = list(dom.zero)
    prev = value = f0 = f(tuple(y))
    tables = [np.zeros(k - 1) for k in dom.sizes]
    for t, i, j in entries:
        y[i] += 1
        cur = f(tuple(y))
        tables[i][j - 1] = cur - prev
        value += t * (cur - prev)
        prev = cur
    return value, f0, tables


def _counted(fn):
    """A counting copy of fn, so a reference run leaves fn's counter alone."""
    if fn._batch_fn is not None:
        return d.OracleFunction(fn.domain, batch_fn=fn._batch_fn)
    return d.OracleFunction(fn.domain, fn._fn)


def _assert_separable(s, constant, tables):
    assert s.constant == constant
    for got, want in zip(s.tables, tables):
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), variant=st.sampled_from(d.UB_VARIANTS))
def test_dr_upper_bound_matches_reference_and_call_count(sizes, seed, variant):
    problem = _coverage_g(sizes, seed)
    h = d.dr_split(problem.g, 0.5).residual
    x = tuple(np.random.default_rng(seed).integers(0, sizes).tolist())
    ref = _counted(h)
    constant, tables = _ref_dr_upper_bound(ref, x, variant)
    bound = d.dr_upper_bound(h, x, variant)
    _assert_separable(bound, constant, tables)
    # h(x), h(0) or h(k_max), one point per level off the anchor; tight1 and
    # tight2 then evaluate their R point (B, i -> x_i) once per coordinate
    # that has a level above (tight1) or below (tight2) the anchor
    off = sum(k - 1 for k in sizes)
    above = sum(c < k - 1 for k, c in zip(sizes, x))
    below = sum(c > 0 for c in x)
    expected = {"grow1": 2 + off, "grow2": 2 + off,
                "tight1": 1 + off + above, "tight2": 1 + off + below}[variant]
    assert h.call_count == expected
    # the reference evaluates tight1's and tight2's R point once per level
    per_level = {"tight1": 1 + off + sum(k - 1 - c for k, c in zip(sizes, x)),
                 "tight2": 1 + off + sum(x)}
    assert ref.call_count == per_level.get(variant, expected)


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6))
def test_double_greedy_matches_reference_and_call_count(sizes, seed):
    problem = _coverage_g(sizes, seed)
    rng = np.random.default_rng(seed)
    g = problem.g - d.SeparableFunction(problem.domain, 0.0,
                                        [rng.uniform(0, 0.6, size=k - 1) for k in sizes])
    ref = _counted(g)
    assert bits(d.double_greedy_maximize(g)) == bits(_ref_double_greedy(ref))
    # g(0) and g(k_max) once, then the 2(k_i - 1) level rows of each coordinate;
    # the reference evaluates a and b again per coordinate and the result at the end
    assert g.call_count == 2 + sum(2 * (k - 1) for k in sizes)
    assert ref.call_count == sum(2 * k for k in sizes) + 1


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6))
def test_sweep_a_rows_equal_batch_bitwise_and_count_rows(sizes, seed):
    """Every kind's sweep, along random chosen levels: its a-rows are the batch
    values bit for bit, its b-rows agree up to rounding (bit for bit for a kind
    without a sweep form of its own, composites included), and each row counts
    one call on the oracle and on each parent."""
    chosen = np.random.default_rng(seed + 2).integers(0, sizes).tolist()
    top = [k - 1 for k in sizes]
    for label, fn, parents in _kinds(sizes, seed):
        sweep = fn._sweep()
        for i, k in enumerate(sizes):
            rest = len(sizes) - i - 1
            points = sweep.points()
            assert points.tolist() == (
                [chosen[:i] + [level] + [0] * rest for level in range(1, k)]
                + [chosen[:i] + [level] + top[i + 1:] for level in range(k - 1)]), label
            before = [o.call_count for o in [fn] + parents]
            values = sweep.rows()
            after = [o.call_count for o in [fn] + parents]
            assert [b - a for a, b in zip(before, after)] == [2 * (k - 1)] * len(after), label
            expected = fn._batch(points)
            assert values[:k - 1].tobytes() == expected[:k - 1].tobytes(), label
            if type(sweep) is d.lattice._Sweep:
                assert values.tobytes() == expected.tobytes(), label
            np.testing.assert_allclose(values[k - 1:], expected[k - 1:], rtol=1e-12, atol=1e-12)
            sweep.choose(chosen[i])


@pytest.mark.parametrize("sizes", [(3,), (3, 2), (2, 3, 2)])
def test_sweep_keeps_the_sign_of_zero(sizes):
    """-0.0 everywhere: the a-rows' sums keep the batch's signs of zero."""
    fn = -1.0 * d.SeparableFunction.zero(d.LatticeDomain(sizes))
    sweep = fn._sweep()
    for k in sizes:
        values = sweep.rows()
        assert values[:k - 1].tobytes() == fn._batch(sweep.points())[:k - 1].tobytes()
        sweep.choose(0)


def test_sweep_refuses_non_finite_values():
    dom = d.LatticeDomain([3, 2])
    table = d.TableFunction(dom, [0.0, 0.0, np.inf, 0.0, 0.0, 0.0])  # inf at (1, 0)
    separable = d.SeparableFunction(dom, np.inf, [[0.0, 0.0], [0.0]])
    for fn, parent in ((table + 1.0, table), (separable - table, separable)):
        with pytest.raises(ValueError, match=re.escape(f"{parent!r} returned inf at point (1, 0)")):
            fn._sweep().rows()
    assert table.call_count == 4 and separable.call_count == 4


def _nested(sizes, seed, inf_at=None):
    """2.5 * (cov - sep) + 1.0 and its five nodes, top first; ``inf_at`` puts
    +inf in that flat increment of sep."""
    problem = _coverage_g(sizes, seed)
    rng = np.random.default_rng(seed)
    increments = rng.uniform(0, 0.6, size=sum(sizes) - len(sizes))
    if inf_at is not None:
        increments[inf_at] = np.inf
    cov = problem.g
    sep = d.SeparableFunction(problem.domain, 0.0, np.split(increments, np.cumsum(
        [k - 1 for k in sizes])[:-1]))
    diff = cov - sep
    scaled = 2.5 * diff
    top = scaled + 1.0
    return top, [top, scaled, diff, cov, sep]


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6))
def test_nested_composite_sweep_counts_every_node_and_matches_batch(sizes, seed):
    """A sweep through two composite layers: each of the five nodes counts
    2(k_i - 1) calls per coordinate, the a-rows and the b-rows are the batch
    values bit for bit, and double greedy makes 2 + 2 * sum(k_i - 1) calls on
    every node."""
    top, nodes = _nested(sizes, seed)
    chosen = np.random.default_rng(seed + 2).integers(0, sizes).tolist()
    sweep = top._sweep()
    for i, k in enumerate(sizes):
        points = sweep.points()
        before = [o.call_count for o in nodes]
        values = sweep.rows()
        assert [o.call_count - c for o, c in zip(nodes, before)] == [2 * (k - 1)] * 5
        assert values.tobytes() == top._batch(points).tobytes()
        sweep.choose(chosen[i])
    top, nodes = _nested(sizes, seed)
    ref = _counted(_nested(sizes, seed)[0])
    assert bits(d.double_greedy_maximize(top)) == bits(_ref_double_greedy(ref))
    assert [o.call_count for o in nodes] == [2 + sum(2 * (k - 1) for k in sizes)] * 5


@pytest.mark.filterwarnings("error")
def test_nested_composite_sweep_refuses_an_inner_inf_before_combining():
    """+inf in the inner separable function is refused by that function's own
    message, with every node counted once for the rows, and no inf - inf of
    a combine runs first to raise a RuntimeWarning."""
    sizes = [3, 4, 2]
    for inf_at in (0, 3):  # coordinate 0 (an a-row at once), coordinate 1 (the b-rows)
        top, nodes = _nested(sizes, 7, inf_at)
        sep = nodes[-1]
        point = "(1, 0, 0)" if inf_at == 0 else "(0, 3, 1)"
        with pytest.raises(ValueError, match=re.escape(f"{sep!r} returned inf at point {point}")):
            top._sweep().rows()
        assert [o.call_count for o in nodes] == [4] * 5
        # sep is the first parent of the outer difference: refused before cov is evaluated
        outer = (sep - nodes[3]) - sep
        with pytest.raises(ValueError, match=re.escape(f"{sep!r} returned inf")):
            outer._sweep().rows()
        assert nodes[3].call_count == 4


def test_a_separable_sweep_near_overflow_keeps_its_check():
    """Prefix sums of 1e308 are finite, but their total bound is not: the sweep
    cannot prove its rows finite, so it still refuses the row that overflows.
    A bounded function's sweep skips the check."""
    dom = d.LatticeDomain([2, 3])
    s = d.SeparableFunction(dom, 0.0, [[1e308], [1e308, -1e308]])
    sweep = s._sweep()
    assert not sweep.finite
    assert sweep.rows().tolist() == [1e308, 0.0]  # at (1, 0) and (0, 2)
    sweep.choose(1)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape(f"{s!r} returned inf at point (1, 1)")):
        sweep.rows()
    assert s.call_count == 2 + 4
    assert d.SeparableFunction(dom, -1e299, [[1e299], [1e299, -1e299]])._sweep().finite


def test_a_coverage_sweep_proves_its_rows_finite_only_with_bounded_weights():
    """Miss factors in [0, 1] keep each region's term within |w_j|: bounded
    weights prove every row finite; weights whose total overflows keep the
    check, which refuses the overflowing row."""
    spec = d.generate_ensemble("coverage", {"count": 1, "sizes": [3, 2], "regions": 2},
                               seed=1)[0]
    assert d.build_problem(spec, validate=False)[0].g._sweep().finite
    spec["g"]["probs"] = [[1.0, 1.0], [1.0, 1.0]]
    spec["g"]["weights"] = [1e308, 1e308]
    g = d.build_problem(spec, validate=False)[0].g
    sweep = g._sweep()
    assert not sweep.finite
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape(f"{g!r} returned inf at point (1, 0)")):
        sweep.rows()


def test_a_composite_checks_its_rows_at_every_node(monkeypatch):
    """A composite's sweep evaluates its rows as one batch, so each node, the
    coverage g and the separable s included, checks its own rows.
    1e300 * (g - 1e9 * s) refuses the rows it scales to -inf."""
    problem = _coverage_g([3, 4, 2], 7)
    dom = problem.domain
    s = d.SeparableFunction(dom, 0.5, [np.full(k - 1, 0.25) for k in dom.sizes])
    checks = []
    finite = d.lattice._finite
    monkeypatch.setattr(d.lattice, "_finite", lambda v: checks.append(len(v)) or finite(v))
    sweep = (1e300 * (problem.g - s))._sweep()
    for level in (1, 2, 0):
        sweep.rows()
        sweep.choose(level)
    assert checks == [2 * (k - 1) for k in dom.sizes for _node in range(4)]
    checks.clear()
    overflowing = 1e300 * (problem.g - 1e9 * s)  # 1e9 * s is separable, bounded by 2e9
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape(f"{overflowing!r} returned -inf at point (1, 0, 0)")):
        overflowing._sweep().rows()
    assert checks == [4] * 4


def _paths(sizes, seed):
    """Three level paths; the second and third share a random prefix with the first."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, sizes).tolist()
    paths = [first]
    for _ in range(2):
        shared = int(rng.integers(0, len(sizes) + 1))
        paths.append(first[:shared] + rng.integers(0, sizes).tolist()[shared:])
    return paths


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6))
def test_remembered_rows_are_the_rows_a_fresh_sweep_computes(sizes, seed):
    """Sweeps of a view along paths that share prefixes, for a coverage, a
    table and a composite g: each of g's rows, remembered or not, is bit for
    bit the row a fresh sweep of g computes at that prefix, and g counts only
    the rows evaluated at a prefix not seen before.  Double greedy of the
    view and s then gives the result of g and s, and g counts 2 plus the
    rows at prefixes no sweep chose."""
    problem = _coverage_g(sizes, seed)
    dom = problem.domain
    rng = np.random.default_rng(seed + 1)
    s = d.SeparableFunction(dom, 0.0, [rng.uniform(0, 0.6, size=k - 1) for k in sizes])
    table = d.TableFunction(dom, rng.uniform(-1.0, 1.0, size=dom.num_points))
    for g in (problem.g, table, table - problem.g):
        view = d.lattice._RememberedRows(g)
        seen = set()
        for path in _paths(sizes, seed):
            sweep, fresh = view._sweep(), g._sweep()
            for i, k in enumerate(sizes):
                before = g.call_count
                values = sweep.rows()
                assert g.call_count - before == (0 if tuple(path[:i]) in seen else 2 * (k - 1))
                assert values is sweep.node[0]
                assert values.tobytes() == fresh.rows().tobytes()
                seen.add(tuple(path[:i]))
                sweep.choose(path[i])
                fresh.choose(path[i])
        expected = d.double_greedy_maximize(g, s)
        before = g.call_count
        point, value = d.double_greedy_maximize(view, s)
        assert bits((point, value)) == bits(expected)
        unseen = [2 * (k - 1) for i, k in enumerate(sizes) if point[:i] not in seen]
        assert g.call_count - before == 2 + sum(unseen)


def test_a_refused_row_is_not_remembered():
    """g is +inf at (0, 1), or a composite that overflows there, and double
    greedy of the view and m reaches (0, 1) at coordinate 1: each run refuses
    it with g's own message.  The second run reads coordinate 0's rows from
    the memo and evaluates coordinate 1's again."""
    dom = d.LatticeDomain([3, 3])
    values = np.zeros(dom.num_points)
    values[dom.flat_index((0, 1))] = np.inf
    table = d.TableFunction(dom, values.copy())
    values[dom.flat_index((0, 1))] = 1e308
    overflowing = d.TableFunction(dom, values) + 1e308
    for g in (table, overflowing):
        view = d.lattice._RememberedRows(g)
        for calls in (2 + 4 + 4, 2 + 4):
            before = g.call_count
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match=re.escape(f"{g!r} returned inf at point (0, 1)")):
                d.double_greedy_maximize(view, d.SeparableFunction.zero(dom))
            assert g.call_count - before == calls
            assert view._root[0] is not None and view._root[1][0][0] is None


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("curve", [(0.0, 0.0, 0.0, 0.0), (0.3, -0.3, 0.2, -0.2)])
def test_double_greedy_zero_gain_coordinate_matches_reference(seed, curve):
    """A coverage g with a coordinate whose probabilities are all 0, and a
    separable m with the increments ``curve`` there.  Flat, every level ties
    exactly on both sides; with the levels 0, 0.3, 0, 0.2, 0, raising a gains
    exactly 0 at levels 2 and 4 and lowering b exactly 0 at levels 0 and 2 in
    the batch form.  g's sweep rows less m's may differ in the b-rows from
    the carried g(b) - m(b) in the last bits (seed 0 lowers by -8.9e-16,
    seed 8 gains a positive rounding error), but they are equal bit for bit
    where the levels are, so the first best lowering is level 0: double
    greedy of g and m keeps a_i = 0 either way, as double greedy of the
    composite g - m, whose rows are batch values, and the reference do."""
    sizes = [4, 3, 4, 3]
    zero = seed % len(sizes)
    sizes[zero] = 5
    spec = d.generate_ensemble("coverage", {"count": 1, "sizes": sizes, "regions": 5},
                               seed=seed)[0]
    spec["g"]["probs"][zero] = [0.0] * 5
    problem, _ = d.build_problem(spec, validate=False)
    rng = np.random.default_rng(seed)
    tables = [rng.uniform(0, 0.6, size=k - 1) for k in sizes]
    tables[zero] = np.array(curve)
    g, m = problem.g, d.SeparableFunction(problem.domain, 0.0, tables)
    expected = bits(_ref_double_greedy(_counted(g - m)))
    for point, value in (d.double_greedy_maximize(g, m), d.double_greedy_maximize(g - m)):
        assert bits((point, value)) == expected
        assert point[zero] == 0
    g_sweep, m_sweep = g._sweep(), m._sweep()
    for level in point[:zero]:
        g_sweep.choose(level)
        m_sweep.choose(level)
    values = g_sweep.rows() - m_sweep.rows()
    levels = np.concatenate(([0.0], np.cumsum(curve)))
    ups, downs = values[:4], values[4:]
    ga = (g - m)(point[:zero] + (0,) * (len(sizes) - zero))
    assert (ups == ga).tolist() == (levels[1:] == 0.0).tolist()
    assert (downs[:, None] == downs).tolist() == (levels[:4, None] == levels[:4]).tolist()


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), top=st.integers(0, 2))
def test_double_greedy_integer_ties_match_reference(sizes, seed, top):
    """Values in {0, ..., top} tie often: the carried values must choose as the reference."""
    dom = d.LatticeDomain(sizes)
    g = d.TableFunction(dom, np.random.default_rng(seed).integers(0, top + 1, dom.num_points))
    assert bits(d.double_greedy_maximize(g)) == bits(_ref_double_greedy(_counted(g)))


def test_double_greedy_ties_keep_scalar_order():
    g = d.OracleFunction(d.LatticeDomain([4, 4]), lambda x: 0.0)
    ref = _counted(g)
    assert d.double_greedy_maximize(g) == _ref_double_greedy(ref) == ((0, 0), 0.0)
    flat = d.TableFunction(d.LatticeDomain([4]), [0.0, 1.0, 1.0, 0.0])
    assert d.double_greedy_maximize(flat) == _ref_double_greedy(_counted(flat))


def _separable_ms(dom, seed, integer):
    """Three separable functions; the second and third share a random prefix
    of coordinates with the first.  Integer ones tie often and hold -0.0."""
    rng = np.random.default_rng(seed)

    def tables():
        if integer:
            return [np.where(rng.random(k - 1) < 0.2, -0.0, rng.integers(-1, 2, k - 1) * 1.0)
                    for k in dom.sizes]
        return [rng.uniform(0, 0.6, size=k - 1) for k in dom.sizes]

    first = tables()
    ms = [d.SeparableFunction(dom, 0.25, first)]
    for _ in range(2):
        shared = int(rng.integers(0, dom.n + 1))
        ms.append(d.SeparableFunction(dom, 0.25, first[:shared] + tables()[shared:]))
    return ms


def _ref_double_greedy_of_rows(g, m):
    """``_ref_double_greedy``'s rule on g - m, read from g's and m's own sweeps:
    the start values and each coordinate's rows of g less m's, carried as the
    levels are chosen, with no composite of g and m."""
    dom = g.domain
    ends = [dom.zero, dom.k_max]
    ga, gb = (g.batch(ends) - m.batch(ends)).tolist()
    g_sweep, m_sweep = g._sweep(), m._sweep()
    for top in dom.k_max:
        values = (g_sweep.rows() - m_sweep.rows()).tolist()
        up_gain, up_level, down_gain, down_level = 0.0, 0, 0.0, top
        for level in range(top + 1):
            if level != 0 and values[level - 1] - ga > up_gain:
                up_gain, up_level = values[level - 1] - ga, level
            if level != top and values[top + level] - gb > down_gain:
                down_gain, down_level = values[top + level] - gb, level
        chosen = up_level if up_gain >= down_gain else down_level
        if chosen != 0:
            ga = values[chosen - 1]
        if chosen != top:
            gb = values[top + chosen]
        g_sweep.choose(chosen)
        m_sweep.choose(chosen)
    return tuple(g_sweep.chosen), ga


@settings(max_examples=40, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), integer=st.booleans())
def test_double_greedy_of_g_and_m_matches_the_reference_on_the_sweeps(sizes, seed, integer):
    """``double_greedy_maximize(g, m)`` is ``_ref_double_greedy_of_rows(g, m)``
    bit for bit, for a coverage, a table (integer-valued when ``integer``, so
    gains tie), a composite and a ``_RememberedRows`` view of each, with m's
    that share prefixes.  g makes 2 + 2 * sum(k_i - 1) calls; through the view,
    2 plus the rows at prefixes no earlier run chose.  m is never called."""
    problem = _coverage_g(sizes, seed)
    dom = problem.domain
    rng = np.random.default_rng(seed + 1)
    values = (rng.integers(0, 3, dom.num_points) * 1.0 if integer
              else rng.uniform(-1.0, 1.0, dom.num_points))
    table = d.TableFunction(dom, values)
    per_run = 2 + sum(2 * (k - 1) for k in sizes)
    for g in (problem.g, table, table - problem.g):
        view = d.lattice._RememberedRows(g)
        seen = set()
        for m in _separable_ms(dom, seed + 2, integer):
            expected = _ref_double_greedy_of_rows(g, m)
            before, m_before = g.call_count, m.call_count
            assert bits(d.double_greedy_maximize(g, m)) == bits(expected)
            assert g.call_count - before == per_run
            before = g.call_count
            point, value = d.double_greedy_maximize(view, m)
            assert bits((point, value)) == bits(expected)
            unseen = [2 * (k - 1) for i, k in enumerate(sizes) if point[:i] not in seen]
            assert g.call_count - before == 2 + sum(unseen)
            seen.update(point[:i] for i in range(dom.n))
            assert m.call_count == m_before


def test_double_greedy_of_g_and_m_refuses_what_the_composite_refuses():
    """A g - m that overflows raises a ValueError naming g and m, at the start
    (g(k_max) - m(k_max)) or in a sweep row; an inf in m is refused by m.  m
    must be a separable function on g's domain, checked before g is called."""
    dom = d.LatticeDomain([3, 2])
    at_top = d.TableFunction(dom, [0.0] * 5 + [1e308])
    in_row = d.TableFunction(dom, [0.0, 0.0, 1e308, 0.0, 0.0, 0.0])  # (1, 0), an a-row
    m = d.SeparableFunction(dom, 0.0, [[-1e308, 0.0], [0.0]])
    for g, point in ((at_top, "(2, 1)"), (in_row, "(1, 0)")):
        with pytest.raises(ValueError, match=re.escape(
                f"{g!r} - {m!r} returned inf at point {point}")):
            d.double_greedy_maximize(g, m)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="returned inf"):
            d.double_greedy_maximize(g - m)  # the composite refuses it too, counting m
    infinite = d.SeparableFunction(dom, 0.0, [[0.0, 0.0], [np.inf]])
    with pytest.raises(ValueError, match=re.escape(f"{infinite!r} returned inf at point (2, 1)")):
        d.double_greedy_maximize(d.TableFunction(dom, np.zeros(6)), infinite)
    assert infinite.call_count == 0
    before = at_top.call_count
    with pytest.raises(TypeError, match="SeparableFunction"):
        d.double_greedy_maximize(at_top, at_top)
    with pytest.raises(ValueError, match="domain mismatch"):
        d.double_greedy_maximize(at_top, d.SeparableFunction.zero(d.LatticeDomain([3, 3])))
    assert at_top.call_count == before  # m is refused before g is called


def test_double_greedy_of_g_and_m_checks_the_rows_the_bounds_leave_unproven(monkeypatch):
    """A coverage g and a bounded m prove every row of g - m finite: only g(0)
    - m(0) and g(k_max) - m(k_max) are checked.  A table g proves nothing, so
    each coordinate's rows are checked too."""
    problem = _coverage_g([3, 4, 2], 7)
    dom = problem.domain
    m = d.SeparableFunction(dom, 0.5, [np.full(k - 1, 0.25) for k in dom.sizes])
    checked = []
    difference = d.solvers._difference
    monkeypatch.setattr(d.solvers, "_difference", lambda g, m, gv, mv, points: checked.append(
        points is not None) or difference(g, m, gv, mv, points))
    table = d.TableFunction(dom, np.zeros(dom.num_points))
    for g, rows_checked in ((problem.g, False), (d.lattice._RememberedRows(problem.g), False),
                            (table, True)):
        checked.clear()
        d.double_greedy_maximize(g, m)
        assert checked == [True] + [rows_checked] * dom.n


@pytest.mark.filterwarnings("error")
def test_double_greedy_of_g_and_m_refuses_an_inf_of_g_by_g():
    """+inf in g at the start, where m is +inf everywhere, and in a sweep row:
    g refuses it with its own message before anything is subtracted, directly
    and through a view, and no RuntimeWarning is raised."""
    dom = d.LatticeDomain([3, 2])
    zeros = [[0.0, 0.0], [0.0]]
    for values, m, point in (
            ([np.inf] + [0.0] * 5, d.SeparableFunction(dom, np.inf, zeros), "(0, 0)"),
            ([0.0, 0.0, np.inf, 0.0, 0.0, 0.0], d.SeparableFunction(dom, 0.0, zeros), "(1, 0)")):
        g = d.TableFunction(dom, values)
        for h in (g, d.lattice._RememberedRows(g)):
            with pytest.raises(ValueError, match=re.escape(f"{g!r} returned inf at point {point}")):
                d.double_greedy_maximize(h, m)
        assert m.call_count == 0


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), tie=st.booleans())
def test_greedy_extension_matches_reference(sizes, seed, tie):
    problem = _coverage_g(sizes, seed)
    f = problem.v_oracle()
    rng = np.random.default_rng(seed)
    # rounded weights make ties across coordinates likely
    levels = [np.sort(rng.uniform(size=k - 1))[::-1] for k in sizes]
    if tie:
        levels = [np.round(v, 1) for v in levels]
    profile = d.Profile(problem.domain, levels)
    ref = _counted(f)
    value, f0, tables = _ref_greedy_extension(ref, profile)
    got, weights = d.greedy_extension(f, profile)
    assert got == value
    _assert_separable(weights, f0, tables)
    assert f.call_count == ref.call_count == profile.entry_count() + 1


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6))
def test_chain_lower_bound_matches_reference(sizes, seed):
    problem = _coverage_g(sizes, seed)
    y = tuple(np.random.default_rng(seed).integers(0, sizes).tolist())
    chain = d.chain_containing(problem.domain, y, mode="randomized", seed=seed)
    values = [problem.g(p) for p in chain.points]
    bound = d.chain_lower_bound(problem.g, y, chain)
    tables = [np.zeros(k - 1) for k in sizes]
    for s, i in enumerate(chain.increments, start=1):
        tables[i][chain.points[s][i] - 1] = values[s] - values[s - 1]
    _assert_separable(bound, values[0], tables)
    assert problem.g.call_count == 2 * (chain.length + 1)


def _ref_round_profile(f, profile):
    best_point, best_value, seen = None, math.inf, set()
    for t in profile.breakpoints():
        x = tuple(d.level_at(v, float(t)) for v in profile.levels)
        if x not in seen:
            seen.add(x)
            val = f(x)
            if val < best_value or (val == best_value and x < best_point):
                best_point, best_value = x, val
    return best_point, best_value


@settings(max_examples=30, deadline=None)
@given(sizes=sizes_st, seed=st.integers(0, 10**6), digits=st.sampled_from([1, 2, 8]))
def test_round_profile_matches_reference(sizes, seed, digits):
    problem = _coverage_g(sizes, seed)
    # a constant v makes every rounding tie, so the smallest point must win
    for f in (problem.v_oracle(), problem.g - problem.g):
        rng = np.random.default_rng(seed)
        levels = [np.round(np.sort(rng.uniform(size=k - 1))[::-1], digits) for k in sizes]
        profile = d.Profile(problem.domain, levels)
        ref = _counted(f)
        order, _, points = d.extension._greedy_walk(profile)
        got = d.solvers._round_and_extend(f, profile._flat[order], points)[2:4]
        assert got == _ref_round_profile(ref, profile)
        assert f.call_count == ref.call_count


def test_points_at_matches_level_at_and_checks_thresholds():
    profile = d.Profile(d.LatticeDomain([4, 3]), [[0.9, 0.5, 0.5], [1.0, 0.2]])
    ts = [0.1, 0.2, 0.5, 0.7, 1.0]
    assert profile.points_at(ts).tolist() == [
        [d.level_at(v, t) for v in profile.levels] for t in ts]
    assert profile.point_at(0.5) == (3, 1)
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="threshold"):
            profile.points_at([0.5, bad])


@pytest.mark.parametrize("budget", [None, 3])
def test_certificate_one_call_per_feasible_neighbour(budget):
    problem = _coverage_g((3, 4, 2), 5)
    x = (1, 3, 0)
    cert = d.certify_local_minimum(problem, x, budget=budget)
    expected = [p for p in [(2, 3, 0), (0, 3, 0), (1, 2, 0), (1, 3, 1)]
                if budget is None or sum(p) <= budget]
    assert [p for p, _ in cert.neighbors] == expected
    assert problem.f.call_count == problem.g.call_count == len(expected) + 1
    assert cert.value == problem.v(x)
    for point, value in cert.neighbors:
        assert value == problem.v(point)


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("seed", range(4))
def test_loop_certificate_evaluates_only_the_neighbours(seed, budget):
    """The loop hands its certificate the v(x) it recorded: one call per neighbour.

    modmod with a separable f evaluates f only to record points and in the
    certificate, and g, after the last recorded point, only in the final
    iteration's chain bound and in the certificate.  That chain is built at
    the final point; it evaluates its sum(k_i - 1) + 1 rows less the common
    prefix and suffix it shares with the previous iteration's chain, built
    at the point accepted before.
    """
    sizes = (3, 4, 2, 3)
    problem = _coverage_g(sizes, seed)
    coeff = d.dr_violation(problem.f)
    problem.f.reset_count()
    report = d.solve(problem, d.SolveOptions(algorithm="modmod", dr_coeff=coeff, budget=budget))
    assert report.status == "certified_local_min"
    cert, last = report.certificate, report.events[-1]
    if last.t == report.iterates[-1].t + 1:
        chain = 0  # the final chain was built before the last event
    else:
        rows = d.chain_containing(problem.domain, report.final_point).point_array()
        chain = len(rows)
        if len(report.iterates) > 1:
            previous = d.chain_containing(problem.domain, report.iterates[-2].point)
            same = (rows == previous.point_array()).all(axis=1)
            # a chain through both points is shared whole
            chain = 0 if same.all() else chain - np.argmin(same) - np.argmin(same[::-1])
    assert problem.f.call_count - last.calls_f == len(cert.neighbors)
    assert problem.g.call_count - last.calls_g == chain + len(cert.neighbors)
    assert bits(cert.value) == bits(report.iterates[-1].v)
    # the certificate called directly evaluates x too, and agrees bit for bit
    public = d.certify_local_minimum(problem, report.final_point, budget=budget)
    assert bits((public.value, public.neighbors, public.best_descending)) == \
        bits((cert.value, cert.neighbors, cert.best_descending))


@pytest.mark.parametrize("algorithm", ["modmod", "supsub"])
@pytest.mark.parametrize("seed", [0, 1, 7, 10])  # seeds whose solves make such moves
def test_descending_neighbour_reuses_the_certificate_values(seed, algorithm):
    """An accepted descending neighbour is recorded from the values its failed
    certificate evaluated.  With a separable f only events and certificates call
    f, so between the event before it and it f is called once per neighbour."""
    problem = _coverage_g((3, 4, 2, 3), seed)
    coeff = d.dr_violation(problem.f)
    report = d.solve(problem, d.SolveOptions(algorithm=algorithm, dr_coeff=coeff))
    moves = [k for k, e in enumerate(report.events) if e.label == "descending_neighbor"]
    assert moves
    for k in moves:
        x = [e for e in report.events[:k] if e.accepted][-1].point
        neighbours = sum((c < top) + (c > 0) for c, top in zip(x, problem.domain.k_max))
        event = report.events[k]
        assert event.calls_f - report.events[k - 1].calls_f == neighbours
        assert bits((event.f_val, event.g_val)) == bits((problem.f(event.point),
                                                         problem.g(event.point)))


def test_chain_validates_increments_without_points():
    dom = d.LatticeDomain([3, 2])
    with pytest.raises(ValueError, match="coordinate 0 incremented 1 times, needs 2"):
        d.Chain(dom, [0, 1, 1])
    with pytest.raises(ValueError, match="increment coordinates"):
        d.Chain(dom, [0, 0, 2])
    chain = d.Chain(dom, [1, 0, 0])
    assert chain.point_array().tolist() == [[0, 0], [0, 1], [1, 1], [2, 1]]
    assert chain.points == [(0, 0), (0, 1), (1, 1), (2, 1)]
    assert chain.contains((1, 1)) and not chain.contains((1, 0))


def _ref_best_descending(neighbors, vx, tol):
    best = None
    for nbr, vn in neighbors:
        if vn < vx - tol and (best is None or vn < best[1]):
            best = (nbr, vn)
    return best


@pytest.mark.parametrize("budget", [None, 0, 2])
def test_certificate_best_descending_matches_scalar_scan(budget):
    """Integer values tie often: the first lowest descending neighbour must win."""
    dom = d.LatticeDomain([3, 4, 2])
    rng = np.random.default_rng(7)
    problem = d.DsProblem(d.TableFunction(dom, rng.integers(0, 3, size=dom.num_points)),
                          d.SeparableFunction.zero(dom))
    for x in dom.points():
        if budget is not None and sum(x) > budget:
            continue
        cert = d.certify_local_minimum(problem, x, budget=budget)
        assert cert.best_descending == _ref_best_descending(cert.neighbors, cert.value,
                                                            d.algorithms.DESCENT_TOL)
        assert cert.passed == (cert.best_descending is None)
