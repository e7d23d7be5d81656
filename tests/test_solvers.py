import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmin as d
from dsmin.solvers import SFM_TOL
from conftest import (
    concave_linear,
    nonnegative_submodular,
    quadratic_submodular,
    random_separable,
    submodular_ensemble,
)


class TestMinimizeSeparable:
    def test_hand_example(self):
        dom = d.LatticeDomain([3, 3])
        s = d.SeparableFunction(dom, 0.0, [[2.0, -3.0], [-1.0, 4.0]])
        point, value = d.minimize_separable(s)
        assert point == (2, 1)
        assert value == pytest.approx(-2.0)

    def test_all_positive_tables(self):
        dom = d.LatticeDomain([3, 4])
        s = d.SeparableFunction(dom, 5.0, [[1.0, 2.0], [0.5, 0.5, 0.5]])
        assert d.minimize_separable(s) == ((0, 0), 5.0)

    def test_all_negative_tables(self):
        dom = d.LatticeDomain([3, 3])
        s = d.SeparableFunction(dom, 0.0, [[-1.0, -1.0], [-2.0, -0.5]])
        point, _ = d.minimize_separable(s)
        assert point == dom.k_max

    def test_matches_bruteforce(self):
        for seed in range(20):
            s = random_separable(seed, sizes=(4, 3, 4))
            point, value = d.minimize_separable(s)
            bf_point, bf_value = d.brute_force_minimize(
                d.TableFunction(s.domain, s.values_over_domain()))
            assert value == pytest.approx(bf_value, abs=1e-12)
            assert point == bf_point  # both scan ties lexicographically


class TestCardinalityDP:
    def test_hand_example(self):
        dom = d.LatticeDomain([3, 3])
        s = d.SeparableFunction(dom, 0.0, [[2.0, -3.0], [-1.0, 4.0]])
        point, value = d.minimize_separable_cardinality(s, dom, 2)
        assert value == pytest.approx(-1.0)
        assert point == (0, 1)  # lex-smaller than the tied (2, 0)

    def test_zero_budget(self):
        s = random_separable(1, sizes=(3, 3))
        point, value = d.minimize_separable_cardinality(s, s.domain, 0)
        assert point == (0, 0)
        assert value == pytest.approx(s.value((0, 0)))

    def test_huge_budget_matches_unconstrained(self):
        for seed in range(10):
            s = random_separable(seed, sizes=(4, 4))
            assert d.minimize_separable_cardinality(s, s.domain, 100) == \
                d.minimize_separable(s)

    def test_matches_enumeration(self):
        for seed in range(15):
            s = random_separable(seed + 50, sizes=(4, 3, 3))
            for budget in (1, 3, 5):
                point, value = d.minimize_separable_cardinality(s, s.domain, budget)
                feas = [x for x in s.domain.points() if sum(x) <= budget]
                best = min(feas, key=lambda x: (s.value(x), x))
                assert value == pytest.approx(s.value(best), abs=1e-12)
                assert sum(point) <= budget
                assert point == best

    def test_negative_budget_rejected(self):
        s = random_separable(0, sizes=(3, 3))
        with pytest.raises(ValueError):
            d.minimize_separable_cardinality(s, s.domain, -1)


class TestDoubleGreedy:
    def test_linear_sum(self):
        dom = d.LatticeDomain([3, 3])
        g = d.OracleFunction(dom, lambda x: float(x[0] + x[1]))
        point, value = d.double_greedy_maximize(g)
        assert point == (2, 2)
        assert value == 4.0

    def test_constant_returns_zero_point(self):
        dom = d.LatticeDomain([3, 3])
        g = d.OracleFunction(dom, lambda x: 3.0)
        point, value = d.double_greedy_maximize(g)
        assert point == (0, 0)
        assert value == 3.0

    def test_lowering_ties_keep_the_lowest_level(self):
        # lowering b from 3 gains 1 at levels 0 and 1; the lowest, farthest from b, wins
        g = d.TableFunction(d.LatticeDomain([4]), [1.0, 1.0, 0.0, 0.0])
        assert d.double_greedy_maximize(g) == ((0,), 1.0)

    def test_one_third_guarantee_empirically(self):
        for seed in range(100):
            g = nonnegative_submodular(seed, sizes=(4, 4, 4))
            _, value = d.double_greedy_maximize(g)
            g2 = d.TableFunction(g.domain, g.values)
            best = g2.values.max()
            assert value >= best / 3.0 - 1e-9

    def test_oracle_call_budget(self):
        dom = d.LatticeDomain([5, 5, 5])
        g = d.OracleFunction(dom, lambda x: float(sum(x)))
        d.double_greedy_maximize(g)
        assert g.call_count <= 3 * sum(dom.sizes)


class TestBruteForce:
    def test_quadratic_bowl(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: (x[0] - 1) ** 2 + (x[1] - 1) ** 2)
        assert d.brute_force_minimize(v) == ((1, 1), 0.0)

    def test_constant_lex_tiebreak(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: 1.0)
        assert d.brute_force_minimize(v) == ((0, 0), 1.0)

    def test_sqrt_difference(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: math.sqrt(x[0] + x[1]) - (x[0] + x[1]))
        assert d.brute_force_minimize(v) == ((2, 2), -2.0)

    def test_cap(self):
        dom = d.LatticeDomain([101, 100, 100])
        v = d.OracleFunction(dom, lambda x: 0.0)
        with pytest.raises(d.CapExceededError):
            d.brute_force_minimize(v)


class TestPav:
    def test_spec_example(self):
        assert d.pav_nonincreasing([0.5, 0.8]).tolist() == [0.65, 0.65]

    def test_already_monotone_untouched(self):
        vals = [0.9, 0.5, 0.5, 0.1]
        assert d.pav_nonincreasing(vals).tolist() == vals

    def test_projection_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.uniform(-0.5, 1.5, size=8)
            proj = d.pav_nonincreasing(z)
            assert np.all(np.diff(proj) <= 1e-12)
            # projection onto a convex cone: idempotent and never farther
            assert np.allclose(d.pav_nonincreasing(proj), proj)
            for other in (np.sort(z)[::-1], np.full(8, z.mean())):
                assert np.linalg.norm(proj - z) <= np.linalg.norm(other - z) + 1e-12


class TestSubgradientSfm:
    def test_matches_bruteforce_on_product(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: -float(x[0] * x[1]))
        res = d.minimize_submodular(f, method="subgradient")
        assert res.minimizer == (2, 2)
        assert res.value == pytest.approx(-4.0)

    def test_separable_matches_exact_solver(self):
        for seed in range(10):
            s = random_separable(seed, sizes=(4, 4))
            res = d.minimize_submodular(s, method="subgradient")
            _, exact = d.minimize_separable(s)
            assert res.value == pytest.approx(exact, abs=1e-9)

    def test_two_coordinate_ensemble(self):
        exact = 0
        for seed in range(100):
            k = 2 + seed % 3  # levels in {2, 3, 4}
            fn, _, _ = quadratic_submodular(seed, sizes=(k, 4))
            res = d.minimize_submodular(fn, method="subgradient")
            _, best = d.brute_force_minimize(
                d.OracleFunction(fn.domain, lambda x, fn=fn: fn(x)))
            assert res.value >= best - 1e-9  # never below the true minimum
            assert res.duality_info["rounding_gap"] >= -1e-9
            if res.value <= best + 1e-9:
                exact += 1
        assert exact >= 95

    def test_brute_method(self):
        fn, _, _ = quadratic_submodular(7, sizes=(3, 3))
        res = d.minimize_submodular(fn, method="brute_force")
        assert res.method == "brute_force"
        assert res.duality_info is None

    def test_unknown_method(self):
        fn, _, _ = quadratic_submodular(7, sizes=(3, 3))
        with pytest.raises(ValueError):
            d.minimize_submodular(fn, method="magic")


# lattice shapes of at most 200 points
shapes_st = st.lists(st.integers(2, 5), min_size=1, max_size=3).filter(
    lambda sizes: math.prod(sizes) <= 200)


def _sfm_input(kind, sizes, seed, offset):
    """A submodular function of one of three families, shifted by ``offset``."""
    dom = d.LatticeDomain(sizes)
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        fn, _, _ = quadratic_submodular(seed, sizes=tuple(sizes))
    else:
        spec = d.generate_ensemble("concave_of_linear_sums",
                                   {"count": 1, "sizes": sizes}, seed=seed)[0]
        p, _ = d.build_problem(spec, validate=False)
        if kind == "concave":
            # a monotone table minus a separable reward, so 0 is rarely the minimiser
            reward = [rng.uniform(0.0, 2.0, size=k - 1) for k in sizes]
            fn = p.f - d.SeparableFunction(dom, 0.0, reward)
        else:
            # the subsup inner problem f - h_g at a random anchor
            x = tuple(int(rng.integers(0, k)) for k in sizes)
            fn = p.f - d.chain_lower_bound(p.g, x, d.chain_containing(dom, x))
    return fn + offset


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["concave", "quadratic", "inner"]), sizes=shapes_st,
       seed=st.integers(0, 10**6), offset=st.floats(-5.0, 5.0),
       budget=st.sampled_from([1, 2, 5, 500]))
def test_sfm_certificate(kind, sizes, seed, offset, budget):
    fn = _sfm_input(kind, sizes, seed, offset)
    res = d.minimize_submodular(fn, method="subgradient",
                                options=d.SubgradientOptions(iterations=budget))
    _, best = d.brute_force_minimize(fn)
    info = res.duality_info
    assert info["lower_bound"] <= best + 1e-12 * max(1.0, abs(best))  # rounding slack only
    assert best <= res.value == fn(res.minimizer)
    assert info["gap"] == res.value - info["lower_bound"] >= 0.0
    assert info["rounding_gap"] >= -1e-12 * max(1.0, abs(best))
    assert 1 <= res.iterations <= budget
    if info["gap"] <= SFM_TOL * max(1.0, abs(res.value)):
        assert res.value == best


@settings(max_examples=30, deadline=None)
@given(sizes=shapes_st, seed=st.integers(0, 10**6))
def test_sfm_separable_input_stops_after_one_iteration(sizes, seed):
    s = random_separable(seed, sizes=tuple(sizes))
    solves = []  # KKT systems: the first iteration projects onto the shift cone in closed form
    kkt = d.solvers._affine_minimizer
    d.solvers._affine_minimizer = lambda *args: solves.append(1) or kkt(*args)
    try:
        res = d.minimize_submodular(s, method="subgradient")
    finally:
        d.solvers._affine_minimizer = kkt
    assert (res.iterations, solves) == (1, [])
    assert res.duality_info["gap"] <= SFM_TOL * max(1.0, abs(res.value))
    assert res.value == pytest.approx(d.minimize_separable(s)[1], abs=1e-12)


def _round_on_own_walk(f, profile):
    """``_round_and_extend`` on the greedy walk at ``profile``: (point, value, extension)."""
    order, _, points = d.extension._greedy_walk(profile)
    return d.solvers._round_and_extend(f, profile._flat[order], points)[2:]


def test_rounding_extension_matches_greedy_extension():
    rng = np.random.default_rng(5)
    for seed in range(20):
        fn, _, _ = quadratic_submodular(seed, sizes=(4, 3, 5))
        # non-increasing levels with ties, zeros and ones
        levels = [np.sort(rng.choice([0.0, 0.25, 0.5, rng.uniform(), 1.0], size=k - 1))[::-1]
                  for k in fn.domain.sizes]
        profile = d.Profile(fn.domain, levels)
        point, value, ext = _round_on_own_walk(fn, profile)
        assert (point, value) == _round_on_own_walk(fn, profile)[:2]
        assert ext == pytest.approx(d.greedy_extension(fn, profile)[0], abs=1e-12)


def test_sfm_iteration_budget_is_validated():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            d.SubgradientOptions(iterations=bad)
    for bad in (2.5, 2.0, True, np.True_):
        with pytest.raises(ValueError, match="^SFM iterations must be an integer"):
            d.SubgradientOptions(iterations=bad)
    assert d.SubgradientOptions(iterations=np.int64(2)).iterations == 2
    # the step-size knobs of the projected subgradient method are gone
    for removed in ("step_scale", "round_each_iteration"):
        with pytest.raises(TypeError):
            d.SubgradientOptions(**{removed: 1})


def test_sfm_stops_at_its_documented_precision():
    """README's stopping rule, gap <= 1e-9 * max(1, |value|) (SFM_TOL): on
    this table the gap after one iteration exceeds 1e-3 * max(1, |value|),
    and a later iteration closes it, so a looser tolerance stops early."""
    sizes = (5, 2, 5, 3)
    fn = concave_linear(158, sizes=sizes) - random_separable(158, sizes=sizes)
    table = d.TableFunction(fn.domain, d.table_of(fn))
    assert d.check_submodular(table)
    first = d.minimize_submodular(table, "subgradient", options=d.SubgradientOptions(iterations=1))
    assert first.duality_info["gap"] > 1e-3 * max(1.0, abs(first.value))
    res = d.minimize_submodular(table, "subgradient")
    assert res.duality_info["gap"] <= 1e-9 * max(1.0, abs(res.value))
    assert res.value == d.brute_force_minimize(table)[1]


def test_isotonic_corral_picks_no_shift_whose_carry_is_zero():
    """-w pools into one block whose mean rounds to 1.0, so the carry at the
    block's inner shift is exactly 0.0: no shift is picked, and every mu of a
    corral is positive."""
    rho, picked, mu = d.solvers._isotonic_corral([(0, 2)], [-1.0, -np.nextafter(1.0, 2.0)])
    assert (rho, picked, mu) == ([1.0, 1.0], [], [])
    assert all(v > 0.0 for v in mu)


def test_sfm_closes_the_gap_within_the_default_budget():
    for seed in range(20):
        fn, _, _ = quadratic_submodular(seed, sizes=(4, 4, 4))
        res = d.minimize_submodular(fn, method="subgradient")
        _, best = d.brute_force_minimize(fn)
        assert res.value == best
        assert res.iterations < 500
        assert res.duality_info["gap"] <= SFM_TOL * max(1.0, abs(best))
        assert set(res.duality_info) == {"best_extension", "rounding_gap", "lower_bound", "gap"}


def test_sfm_iterations_stay_few_on_inner_problems():
    # the subsup inner problems f - h_g of concave_of_linear_sums tables; a
    # pairwise step without corrections needs hundreds of iterations on some
    for seed in range(40):
        fn = _sfm_input("inner", [5, 5, 5, 5], seed, 0.0)
        res = d.minimize_submodular(fn, method="subgradient")
        _, best = d.brute_force_minimize(fn)
        assert res.value == best
        assert res.duality_info["gap"] <= SFM_TOL * max(1.0, abs(best))
        assert res.iterations <= 20, (seed, res.iterations)


def test_minor_cycles_leave_the_least_norm_point_of_the_corral():
    rng = np.random.default_rng(11)
    dom = d.LatticeDomain([4, 3, 4])
    shifts = d.solvers._level_shifts(dom)
    assert shifts.shape == (5, 8)
    assert (shifts.sum(axis=1) == 0).all() and (np.abs(shifts).sum(axis=1) == 2).all()
    for _ in range(20):
        atoms, greedy, weights = rng.normal(size=(1, 8)), np.ones(1, dtype=bool), np.ones(1)
        for _ in range(8):
            if rng.random() < 0.4:
                new, is_greedy = shifts[rng.integers(len(shifts))], False
            else:
                new, is_greedy = rng.normal(size=8), True
            atoms, greedy, weights = d.solvers._add_atom(atoms, greedy, weights, new, is_greedy)
            z = weights @ atoms
            assert (weights > 0).all() and weights[greedy].sum() == pytest.approx(1.0, abs=1e-12)
            # z is the affine minimiser: level in every greedy atom, normal to every shift
            assert np.allclose(atoms[greedy] @ z, z @ z, atol=1e-9)
            assert np.allclose(atoms[~greedy] @ z, 0.0, atol=1e-9)


def _shift_loop(dom, w):
    """z after adding the most violated level shift to the corral {w}, one at a time.

    This is the minor-cycle path that ``solvers._isotonic_corral`` replaces.
    """
    shifts = d.solvers._level_shifts(dom)
    lows = shifts.argmin(axis=1).tolist()
    atoms, greedy, weights = w[None, :], np.ones(1, dtype=bool), np.ones(1)
    while True:
        zs = (weights @ atoms).tolist()
        slack = [zs[p + 1] - zs[p] for p in lows]
        if not (slack and min(slack) < -d.solvers.CORRAL_TOL * max(1.0, max(map(abs, zs)))):
            return np.array(zs)
        atoms, greedy, weights = d.solvers._add_atom(atoms, greedy, weights,
                                                     shifts[slack.index(min(slack))], False)


def _greedy_vector(dom, seed, kind):
    rng = np.random.default_rng(seed)
    r = dom._rises.size
    if kind == "normal":
        return rng.normal(size=r)
    if kind == "ties":
        return rng.choice([-1.5, -0.5, 0.0, 0.5, 2.0], size=r)
    if kind == "monotone":  # already non-decreasing in every coordinate: no shift
        return np.concatenate([np.sort(rng.normal(size=k - 1)) for k in dom.sizes])
    return np.full(r, rng.normal())  # constant: no shift either


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=4), seed=st.integers(0, 10**6),
       kind=st.sampled_from(["normal", "ties", "monotone", "constant"]))
def test_isotonic_corral_is_what_the_shift_loop_reaches(sizes, seed, kind):
    dom = d.LatticeDomain(sizes)
    w = _greedy_vector(dom, seed, kind)
    segments = d.solvers._segments(dom)
    rho, picked, mu = d.solvers._isotonic_corral(segments, w.tolist())
    assert np.array(rho).tobytes() == \
        np.array(d.solvers._pav_levels(segments, (-w).tolist())).tobytes()
    z = -np.array(rho)
    assert np.abs(z - _shift_loop(dom, w)).max() <= 1e-12
    shifts = d.solvers._level_shifts(dom)[picked]
    assert all(m > 0.0 for m in mu)
    assert (shifts @ z == 0.0).all()  # every shift atom is normal to z
    assert np.abs(w + np.array(mu) @ shifts - z).max() <= 1e-12  # and the corral spans z
    if kind in ("monotone", "constant"):
        assert picked == mu == []


def _walk_input(kind, sizes, seed):
    if kind == "table":
        dom = d.LatticeDomain(sizes)
        return d.TableFunction(dom, np.random.default_rng(seed).normal(size=dom.num_points))
    if kind == "coverage":
        spec = d.generate_ensemble("coverage", {"count": 1, "sizes": sizes, "regions": 4},
                                   seed=seed)[0]
        return d.build_problem(spec, validate=False)[0].g
    return _sfm_input("inner", sizes, seed, 0.0)  # the composite f - h_g


def _rho(dom, seed, shape):
    """Non-increasing levels per coordinate with ties and zeros; all <= 0 for "nonpositive"."""
    rng = np.random.default_rng(seed)
    choices = [-1.0, -0.25, 0.0, 0.0, 0.5, rng.normal(), 2.0]
    levels = [np.sort(rng.choice(choices, size=k - 1))[::-1] for k in dom.sizes]
    rho = np.concatenate(levels)
    return rho - max(0.0, rho.max()) if shape == "nonpositive" else rho


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["table", "composite", "coverage"]), sizes=shapes_st,
       seed=st.integers(0, 10**6), shape=st.sampled_from(["mixed", "nonpositive"]))
def test_rounding_reads_the_walk_and_the_walk_gives_the_vertex(kind, sizes, seed, shape):
    fn = _walk_input(kind, sizes, seed)
    dom = fn.domain
    rho = _rho(dom, seed, shape)
    order, walk, points = d.extension._greedy_walk(d.Profile._of_flat(dom, rho))
    profile = d.Profile._of_flat(dom, d.solvers._rounded(rho))
    calls = fn.call_count
    rows, values, _, _, _ = d.solvers._round_and_extend(fn, d.solvers._rounded(rho[order]), points)
    assert fn.call_count - calls == len(rows)
    # x(t) at every breakpoint, the first of each run of equal points: the walk's row sum(x(t))
    xs = profile.points_at(profile.breakpoints())
    first = np.ones(len(xs), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]).any(axis=1)
    xs = xs[first]
    assert rows.tolist() == xs.sum(axis=1).tolist()
    assert points[rows].tolist() == xs.tolist()
    vertex = d.solvers._finish_walk(fn, walk, points, rows, values)
    assert fn.call_count - calls == len(points)
    assert values.tobytes() == fn._batch(xs).tobytes()
    want = d.greedy_extension(fn, d.Profile._of_flat(dom, rho))[1]._increments
    assert vertex.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["table", "composite", "coverage"]), sizes=shapes_st,
       seed=st.integers(0, 10**6), budget=st.sampled_from([1, 2, 5, 500]))
def test_sfm_oracle_calls_stay_within_one_walk_per_iteration(kind, sizes, seed, budget):
    fn = _walk_input(kind, sizes, seed)
    r = fn.domain._rises.size
    rounded, walked = [], []
    round_and_extend, finish_walk = d.solvers._round_and_extend, d.solvers._finish_walk

    def counted_rounding(*args):
        out = round_and_extend(*args)
        rounded.append(len(out[0]))
        return out

    def counted_walk(*args):
        walked.append(len(args[3]))
        return finish_walk(*args)

    d.solvers._round_and_extend, d.solvers._finish_walk = counted_rounding, counted_walk
    try:
        calls = fn.call_count
        res = d.minimize_submodular(fn, method="subgradient",
                                    options=d.SubgradientOptions(iterations=budget))
        made = fn.call_count - calls
    finally:
        d.solvers._round_and_extend, d.solvers._finish_walk = round_and_extend, finish_walk
    assert len(rounded) == res.iterations
    assert made == (r + 1) + sum(rounded) + sum(r + 1 - k for k in walked)
    assert made <= (res.iterations + 1) * (r + 1)
    # the earlier path evaluated every walk in full, after its rounding
    assert made <= (r + 1) + sum(rounded) + len(walked) * (r + 1)
