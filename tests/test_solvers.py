import itertools
import math

import numpy as np
import pytest

import dsmin as d
from conftest import (
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
