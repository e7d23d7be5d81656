import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmin as d
from conftest import dr_ensemble, quadratic_submodular, submodular_ensemble


def oracle(sizes, fn):
    return d.OracleFunction(d.LatticeDomain(sizes), fn)


class TestDrViolation:
    def test_square(self):
        assert d.dr_violation(oracle([3], lambda x: x[0] ** 2)) == pytest.approx(2.0)

    def test_sqrt_is_already_dr(self):
        assert d.dr_violation(oracle([3], lambda x: math.sqrt(x[0]))) == 0.0

    def test_constant(self):
        assert d.dr_violation(oracle([3, 3], lambda x: 4.2)) == 0.0

    def test_quadratic_formula(self):
        assert d.dr_violation_quadratic([[2, -1], [-1, 0]]) == pytest.approx(4.0)
        assert d.dr_violation_quadratic([[-1, -2], [-2, -3]]) == 0.0
        assert d.dr_violation_quadratic(np.zeros((3, 3))) == 0.0

    def test_quadratic_requires_square(self):
        with pytest.raises(ValueError):
            d.dr_violation_quadratic([[1, 2, 3], [4, 5, 6]])

    def test_quadratic_agrees_with_bruteforce(self):
        for seed in range(50):
            fn, A, _ = quadratic_submodular(seed, sizes=(4, 4, 4), integer=True)
            assert d.dr_violation_quadratic(A) == pytest.approx(
                d.dr_violation(fn), abs=1e-9)


class TestDrSplit:
    def test_exactness(self):
        fn, _, _ = quadratic_submodular(1, sizes=(3, 3, 3))
        split = d.dr_split(fn, 1.7)
        for x in fn.domain.points():
            assert split.quad.value(x) + split.residual(x) == pytest.approx(
                fn(x), abs=1e-12)

    def test_square_residual(self):
        f = oracle([3], lambda x: float(x[0] ** 2))
        split = d.dr_split(f, 2.0)
        assert split.residual((2,)) == pytest.approx(-4.0)
        assert d.second_difference_within(split.residual, (0,), 0) == pytest.approx(-2.0)
        assert d.check_dr(split.residual)

    def test_zero_coeff_on_dr_function(self):
        f = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        split = d.dr_split(f, 0.0)
        for x in f.domain.points():
            assert split.residual(x) == pytest.approx(f(x))

    def test_mixed_quadratic(self):
        f = oracle([3, 3], lambda x: x[0] ** 2 + x[1] ** 2 - x[0] * x[1])
        split = d.dr_split(f, 2.0)
        assert d.second_difference_cross(split.residual, (0, 0), 0, 1) == pytest.approx(-1.0)
        assert d.second_difference_within(split.residual, (0, 0), 0) == pytest.approx(-2.0)
        assert d.check_dr(split.residual)

    def test_residual_dr_at_bruteforced_coeff(self):
        for fn in submodular_ensemble(6, sizes=(3, 3, 3)):
            split = d.dr_split(fn, d.dr_violation(fn))
            assert d.check_dr(split.residual)

    def test_negative_coeff_rejected(self):
        f = oracle([3], lambda x: 0.0)
        with pytest.raises(ValueError):
            d.dr_split(f, -0.1)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coeff_rejected_before_any_call(self, coeff):
        f = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        s = d.SeparableFunction(f.domain, 0.0, [[1.0, 0.5], [2.0, 1.0]])
        for bound in (lambda: d.dr_split(f, coeff),
                      lambda: d.separable_upper_bound(f, coeff, (1, 0)),
                      lambda: d.separable_upper_bound(s, coeff, (1, 0))):
            with pytest.raises(ValueError, match="quadratic coefficient must be finite"):
                bound()
        assert f.call_count == 0


class TestDrUpperBound:
    def test_hand_example_above_anchor(self):
        h = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        m = d.dr_upper_bound(h, (1, 0), "grow1")
        assert m.value((2, 2)) == pytest.approx(2 + math.sqrt(2))
        assert m.value((2, 2)) >= h((2, 2))

    def test_hand_example_equality_case(self):
        h = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        m = d.dr_upper_bound(h, (1, 0), "grow1")
        assert m.value((0, 1)) == pytest.approx(1.0)

    def test_tight_at_anchor_all_variants(self):
        h = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        for variant in d.UB_VARIANTS:
            for anchor in h.domain.points():
                m = d.dr_upper_bound(h, anchor, variant)
                assert m.value(anchor) == pytest.approx(h(anchor), abs=1e-9)

    def test_majorizes_everywhere(self):
        for fn in dr_ensemble(6, sizes=(3, 3, 3)):
            anchors = [(0, 0, 0), (1, 2, 0), (2, 2, 2), (0, 1, 1)]
            for variant in d.UB_VARIANTS:
                for anchor in anchors:
                    m = d.dr_upper_bound(fn, anchor, variant)
                    for x in fn.domain.points():
                        assert m.value(x) >= fn(x) - 1e-9

    def test_tight_variants_dominate_grow(self):
        for fn in dr_ensemble(6, sizes=(3, 3, 3)):
            for anchor in [(1, 1, 1), (0, 2, 1), (2, 0, 2)]:
                g1 = d.dr_upper_bound(fn, anchor, "grow1")
                g2 = d.dr_upper_bound(fn, anchor, "grow2")
                t1 = d.dr_upper_bound(fn, anchor, "tight1")
                t2 = d.dr_upper_bound(fn, anchor, "tight2")
                for x in fn.domain.points():
                    assert t1.value(x) <= g1.value(x) + 1e-9
                    assert t2.value(x) <= g2.value(x) + 1e-9

    def test_unknown_variant(self):
        h = oracle([3], lambda x: 0.0)
        with pytest.raises(ValueError):
            d.dr_upper_bound(h, (0,), "grow3")


class TestSeparableUpperBound:
    def test_square_with_split(self):
        f = oracle([3], lambda x: float(x[0] ** 2))
        m = d.separable_upper_bound(f, 2.0, (0,), "grow1")
        assert m.value((0,)) == pytest.approx(0.0, abs=1e-12)
        for x in f.domain.points():
            assert m.value(x) >= f(x) - 1e-9

    def test_zero_coeff_matches_dr_bound(self):
        f = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        full = d.separable_upper_bound(f, 0.0, (1, 0), "grow2")
        direct = d.dr_upper_bound(f, (1, 0), "grow2")
        for x in f.domain.points():
            assert full.value(x) == pytest.approx(direct.value(x), abs=1e-9)

    def test_majorizes_general_submodular(self):
        for fn in submodular_ensemble(6, sizes=(3, 3, 3)):
            coeff = d.dr_violation(fn)
            for variant in ("grow1", "grow2"):
                for anchor in [(0, 0, 0), (2, 1, 0), fn.domain.k_max]:
                    m = d.separable_upper_bound(fn, coeff, anchor, variant)
                    assert m.value(anchor) == pytest.approx(fn(anchor), abs=1e-9)
                    for x in fn.domain.points():
                        assert m.value(x) >= fn(x) - 1e-9


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=4).filter(
           lambda sizes: math.prod(sizes) <= 500),
       seed=st.integers(0, 10**6), slack=st.sampled_from([0.0, 0.5, 3.0]))
def test_separable_f_bounds_are_read_from_its_tables(sizes, seed, slack):
    """A SeparableFunction's bounds make no f calls and agree with the evaluated ones."""
    rng = np.random.default_rng(seed)
    dom = d.LatticeDomain(sizes)
    f = d.SeparableFunction(dom, float(rng.normal()), [rng.normal(size=k - 1) for k in sizes])
    coeff = d.dr_violation(f) + slack
    x = tuple(rng.integers(0, sizes).tolist())
    values = f.values_over_domain()
    f.reset_count()
    bounds = {variant: d.separable_upper_bound(f, coeff, x, variant) for variant in d.UB_VARIANTS}
    assert f.call_count == 0
    # the general path, through the same values
    plain = d.OracleFunction(dom, batch_fn=f._batch)
    for variant, bound in bounds.items():
        got = bound.values_over_domain()
        ref = d.separable_upper_bound(plain, coeff, x, variant).values_over_domain()
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() <= 1e-12 * scale, variant
        assert (got >= values - 1e-9 * scale).all(), variant
        assert got[dom.flat_index(x)] == pytest.approx(values[dom.flat_index(x)],
                                                       rel=1e-12, abs=1e-12 * scale)
        if variant in ("tight1", "tight2"):
            assert got.tobytes() == values.tobytes()


def test_a_solve_builds_the_separable_split_once_and_bounds_bit_for_bit():
    """A solve's ``upper`` builds f's split once, and every bound, under
    coefficients that alternate from solve to solve, equals
    ``separable_upper_bound``'s bit for bit, without calling f."""
    rng = np.random.default_rng(5)
    dom = d.LatticeDomain([3, 4, 2])
    f = d.SeparableFunction(dom, 0.3, [rng.normal(size=k - 1) for k in dom.sizes])
    p = d.DsProblem(f, d.SeparableFunction.zero(dom))
    for coeff in (0.5, 0.5, 2.0, -0.0, 0.0, 0.5):
        solve = d.algorithms._Solve(p, d.SolveOptions(), coeff)
        for variant in d.UB_VARIANTS:
            for x in [(0, 0, 0), (1, 3, 0), (2, 2, 1)]:
                got = solve.upper(x, variant)
                want = d.separable_upper_bound(f, coeff, x, variant)
                assert got.constant.hex() == want.constant.hex()
                assert got._increments.tobytes() == want._increments.tobytes()
        split = solve._f_split
        solve.upper((0, 0, 0), "grow1")
        assert solve._f_split is split
    assert f.call_count == 0
