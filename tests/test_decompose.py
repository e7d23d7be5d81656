import math

import numpy as np
import pytest

import dsmin as d
from conftest import (
    coverage_function,
    dr_ensemble,
    ds_ensemble,
    quadratic_submodular,
    sqrt_sum_problem,
    submodular_ensemble,
)

SQRT2 = math.sqrt(2)


def oracle(sizes, fn):
    return d.OracleFunction(d.LatticeDomain(sizes), fn)


class TestMinMarginal:
    def test_sqrt_example(self):
        f = oracle([3], lambda x: math.sqrt(x[0]))
        dec = d.min_marginal_decomposition(f)
        assert dec.modular_part.tables[0][0] == pytest.approx(SQRT2 - 1)
        h = dec.monotone_part
        assert h((0,)) == pytest.approx(0.0)
        assert h((1,)) == pytest.approx(2 - SQRT2)
        assert h((2,)) == pytest.approx(2 - SQRT2)
        assert d.check_monotone(h)

    def test_linear_gives_zero_residual(self):
        f = oracle([4], lambda x: 3.0 * x[0])
        dec = d.min_marginal_decomposition(f)
        for x in f.domain.points():
            assert dec.monotone_part(x) == pytest.approx(0.0, abs=1e-12)

    def test_sqrt_of_sum(self):
        f = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        dec = d.min_marginal_decomposition(f)
        assert dec.modular_part.tables[0][0] == pytest.approx(2 - math.sqrt(3))
        assert dec.modular_part.tables[1][0] == pytest.approx(2 - math.sqrt(3))
        assert d.check_monotone(dec.monotone_part)

    def test_residual_monotone_on_dr_ensemble(self):
        for fn in dr_ensemble(8, sizes=(3, 3, 3)):
            dec = d.min_marginal_decomposition(fn)
            assert dec.monotone_part(fn.domain.zero) == pytest.approx(0.0, abs=1e-9)
            assert d.check_monotone(dec.monotone_part)

    def test_sum_identity(self):
        fn = coverage_function(5, sizes=(3, 3))
        dec = d.min_marginal_decomposition(fn)
        f0 = fn(fn.domain.zero)
        for x in fn.domain.points():
            total = dec.modular_part.value(x) + dec.monotone_part(x)
            assert total == pytest.approx(fn(x) - f0, abs=1e-9)

    def test_verify_rejects_non_dr(self):
        f = oracle([3], lambda x: float(x[0] ** 2))
        with pytest.raises(ValueError):
            d.min_marginal_decomposition(f, verify=True)


class TestHarmonic:
    def test_sqrt_failure_is_reproduced(self):
        f = oracle([3], lambda x: math.sqrt(x[0]))
        dec = d.harmonic_decomposition(f)
        assert dec.modular_part.prefixes[0][1] == pytest.approx(SQRT2 - 1)
        assert dec.modular_part.prefixes[0][2] == pytest.approx(SQRT2 - 1 + SQRT2 / 2)
        h = dec.monotone_part
        assert h((1,)) == pytest.approx(2 - SQRT2)          # ~0.586
        assert h((2,)) == pytest.approx(1 - SQRT2 / 2)      # ~0.293
        assert not dec.monotone_verdict
        assert dec.monotone_verdict.witness.point == (1,)
        assert dec.monotone_verdict.witness.i == 0

    def test_linear_residual_zero(self):
        f = oracle([4], lambda x: 2.0 * x[0])
        dec = d.harmonic_decomposition(f)
        assert dec.monotone_verdict
        for x in f.domain.points():
            assert dec.monotone_part(x) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_case_is_monotone(self):
        # on {0,1}^n the coefficients reduce to the top marginals
        for seed in range(10):
            fn, _, _ = quadratic_submodular(seed, sizes=(2, 2, 2), dr=True)
            dec = d.harmonic_decomposition(fn)
            mm = d.min_marginal_decomposition(fn)
            for i in range(3):
                assert dec.modular_part.tables[i][0] == pytest.approx(
                    mm.modular_part.tables[i][0], abs=1e-12)
            assert dec.monotone_verdict


class TestMonotoneSubmodularSplit:
    def test_dr_monotone_input_collapses_to_linear_part(self):
        fn = coverage_function(9, sizes=(3, 3))
        modular, monotone = d.monotone_submodular_split(fn)
        # no quadratic needed: increments within a coordinate are constant
        for t in modular.tables:
            assert np.allclose(np.diff(t), 0.0, atol=1e-9)
        assert d.check_monotone(monotone)
        assert d.check_submodular(monotone)

    def test_square(self):
        f = oracle([3], lambda x: float(x[0] ** 2))
        modular, monotone = d.monotone_submodular_split(f)
        assert d.check_monotone(monotone)
        assert monotone((0,)) == pytest.approx(0.0, abs=1e-12)
        for x in f.domain.points():
            assert modular.value(x) + monotone(x) == pytest.approx(f(x), abs=1e-9)

    def test_product(self):
        f = oracle([3, 3], lambda x: -float(x[0] * x[1]))
        modular, monotone = d.monotone_submodular_split(f)
        assert d.check_monotone(monotone)
        assert d.check_submodular(monotone)

    def test_ensemble(self):
        for fn in submodular_ensemble(8, sizes=(3, 3, 3)):
            modular, monotone = d.monotone_submodular_split(fn)
            assert d.check_monotone(monotone)
            assert d.check_submodular(monotone)
            assert monotone(fn.domain.zero) == pytest.approx(0.0, abs=1e-9)
            for x in [(0, 0, 0), (1, 2, 0), (2, 2, 2)]:
                assert modular.value(x) + monotone(x) == pytest.approx(fn(x), abs=1e-9)


class TestAdditiveBounds:
    def test_identical_parts(self):
        fn = coverage_function(2, sizes=(3, 3))
        p = d.DsProblem(fn, fn)
        b = d.additive_lower_bounds(p)
        assert b.bound1 <= 1e-9
        assert b.bound2 <= 1e-9

    def test_toy_hand_value(self):
        p = sqrt_sum_problem()
        b = d.additive_lower_bounds(p)
        assert b.bound1 == pytest.approx(-4.0)
        assert b.bound2 == pytest.approx(-4.0)
        assert b.bound2 <= 0 - b.monotone_top_g + 1e-12

    def test_bounds_below_bruteforce_min(self):
        for problem, _ in ds_ensemble(12, sizes=(3, 3, 3)):
            b = d.additive_lower_bounds(problem)
            _, best = d.brute_force_minimize(problem.v_oracle())
            assert b.bound1 <= best + 1e-9
            assert b.bound2 <= best + 1e-9
            assert b.bound2 <= b.bound1 + 1e-9

    def test_inexact_sfm_bound1_is_certified(self):
        # one bound evaluation leaves the SFM gap open on several of these, and
        # the solve's value minus g'(k_max) then lies above the exact bound1
        above = 0
        for seed in range(12):
            f, _, _ = quadratic_submodular(seed, sizes=(4, 4))
            problem = d.DsProblem(f, coverage_function(seed, sizes=(4, 4)))
            exact = d.additive_lower_bounds(problem)
            b = d.additive_lower_bounds(problem, sfm_method="subgradient",
                                        sfm_options=d.SubgradientOptions(iterations=1))
            assert b.bound1 == b.sfm.duality_info["lower_bound"] - b.monotone_top_g
            assert b.bound1 <= exact.bound1 + 1e-12
            above += b.sfm.value - b.monotone_top_g > exact.bound1 + 1e-9
        assert above > 0


class TestExtremes:
    def test_product(self):
        v = oracle([3, 3], lambda x: float(x[0] * x[1]))
        n_max, wit = d.second_difference_extremes(v)
        assert n_max == pytest.approx(1.0)
        assert wit.kind == "cross_abs"

    def test_separable_zero(self):
        s = d.SeparableFunction(d.LatticeDomain([3, 3]), 0.0, [[1.0, -2.0], [0.5, 0.5]])
        n_max, wit = d.second_difference_extremes(s)
        assert n_max == 0.0
        assert wit is None

    def test_three_coordinates(self):
        v = oracle([3, 3, 3], lambda x: 3.0 * x[0] * x[1] - x[0] * x[2])
        n_max, wit = d.second_difference_extremes(v)
        assert n_max == pytest.approx(3.0)
        assert (wit.i, wit.j) == (0, 1)


class TestReferenceQuadratic:
    def test_values(self):
        g, m_ref = d.reference_quadratic(d.LatticeDomain([3, 3]))
        assert m_ref == 4.0
        assert g((1, 1)) == pytest.approx(-2.0)
        assert g((2, 1)) == pytest.approx(4 + 1 - 8)

    def test_cross_differences_exactly_minus_four(self):
        g, _ = d.reference_quadratic(d.LatticeDomain([3, 3, 3]))
        dom = g.domain
        for x in dom.points():
            for i in range(dom.n - 1):
                for j in range(i + 1, dom.n):
                    if x[i] + 1 <= 2 and x[j] + 1 <= 2:
                        assert d.second_difference_cross(g, x, i, j) == -4.0

    def test_submodular_but_not_dr(self):
        g, _ = d.reference_quadratic(d.LatticeDomain([3, 3]))
        assert d.check_submodular(g)
        verdict = d.check_dr(g)
        assert not verdict
        assert verdict.witness.value == pytest.approx(2.0)

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            d.reference_quadratic(d.LatticeDomain([5]))


class TestDsConstruct:
    def test_product_becomes_submodular(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: float(x[0] * x[1]))
        g_ref, m_ref = d.reference_quadratic(dom)
        p = d.ds_construct(v, g_ref, m_ref, 1.0)
        assert d.check_submodular(p.f)
        assert d.check_submodular(p.g)
        assert d.second_difference_cross(p.f, (0, 0), 0, 1) == pytest.approx(0.0)

    def test_submodular_v_needs_no_reference(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: -float(x[0] * x[1]))
        g_ref, m_ref = d.reference_quadratic(dom)
        p = d.ds_construct(v, g_ref, m_ref, 0.0)
        for x in dom.points():
            assert p.f(x) == pytest.approx(v(x))
            assert p.g(x) == 0.0

    def test_random_tables(self):
        rng = np.random.default_rng(17)
        dom = d.LatticeDomain([4, 4])
        g_ref, m_ref = d.reference_quadratic(dom)
        for _ in range(50):
            v = d.TableFunction(dom, rng.uniform(-3, 3, size=dom.num_points))
            n_bound, _ = d.second_difference_extremes(v)
            p = d.ds_construct(v, g_ref, m_ref, n_bound)
            assert d.check_submodular(p.f)
            assert d.check_submodular(p.g)
            for x in dom.points():
                assert p.f(x) - p.g(x) == pytest.approx(v(x), abs=1e-12)

    def test_underestimated_bound_detected(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: 10.0 * x[0] * x[1])
        g_ref, m_ref = d.reference_quadratic(dom)
        with pytest.raises(d.DsConstructionError):
            d.ds_construct(v, g_ref, m_ref, 1.0)

    def test_provenance(self):
        dom = d.LatticeDomain([3, 3])
        v = d.OracleFunction(dom, lambda x: float(x[0] * x[1]))
        g_ref, m_ref = d.reference_quadratic(dom)
        p = d.ds_construct(v, g_ref, m_ref, 2.0)
        assert p.provenance == "constructed"
        assert p.details["n_bound"] == 2.0
