import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dsmin as d
from conftest import quadratic_submodular, random_separable, submodular_ensemble


def oracle(sizes, fn):
    return d.OracleFunction(d.LatticeDomain(sizes), fn)


class TestDomain:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            d.LatticeDomain([])
        with pytest.raises(ValueError):
            d.LatticeDomain([3, 1])

    def test_point_membership_and_shift(self):
        dom = d.LatticeDomain([3, 2])
        assert dom.contains((2, 1))
        assert not dom.contains((3, 0))
        assert dom.contains((1.0, np.int64(1)))
        # a fraction, a boolean, a string, wrong widths: contains is False, never a TypeError
        for x in [(1.5, 0), (True, 0), ("1", 0), (1,), (1, 0, 0)]:
            assert not dom.contains(x)
            with pytest.raises(d.DomainError):
                dom.require(x)
        assert dom.shift((1, 0), 0, 1) == (2, 0)
        with pytest.raises(d.DomainError):
            dom.shift((2, 0), 0, 1)

    def test_points_enumerate_row_major(self):
        dom = d.LatticeDomain([2, 3])
        pts = list(dom.points())
        assert pts[0] == (0, 0)
        assert pts[1] == (0, 1)  # last coordinate fastest
        assert pts[-1] == (1, 2)
        assert [dom.flat_index(p) for p in pts] == list(range(6))

    def test_cap_guard(self):
        dom = d.LatticeDomain([10, 10, 10])
        with pytest.raises(d.CapExceededError):
            dom.check_cap(999)
        dom.check_cap(1000)


class TestSecondDifferences:
    def test_cross_product_negative(self):
        f = oracle([3, 3], lambda x: -x[0] * x[1])
        assert d.second_difference_cross(f, (0, 0), 0, 1) == pytest.approx(-1.0)
        assert f.call_count == 4

    def test_cross_product_positive(self):
        f = oracle([3, 3], lambda x: x[0] * x[1])
        assert d.second_difference_cross(f, (1, 0), 0, 1) == pytest.approx(1.0)

    def test_cross_separable_vanishes(self):
        s = random_separable(3, sizes=(3, 4))
        for x in [(0, 0), (1, 1), (0, 2)]:
            assert d.second_difference_cross(s, x, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_cross_same_coordinate_rejected(self):
        f = oracle([3, 3], lambda x: 0.0)
        with pytest.raises(ValueError):
            d.second_difference_cross(f, (0, 0), 1, 1)

    def test_cross_out_of_domain(self):
        f = oracle([3, 3], lambda x: 0.0)
        with pytest.raises(d.DomainError):
            d.second_difference_cross(f, (2, 0), 0, 1)

    def test_within_square(self):
        f = oracle([3], lambda x: x[0] ** 2)
        assert d.second_difference_within(f, (0,), 0) == pytest.approx(2.0)

    def test_within_sqrt(self):
        f = oracle([3], lambda x: math.sqrt(x[0]))
        assert d.second_difference_within(f, (0,), 0) == pytest.approx(math.sqrt(2) - 2)

    def test_within_linear_vanishes(self):
        f = oracle([4], lambda x: 3.0 * x[0])
        assert d.second_difference_within(f, (0,), 0) == pytest.approx(0.0)
        assert d.second_difference_within(f, (1,), 0) == pytest.approx(0.0)


class TestCheckers:
    def test_submodular_holds(self):
        f = oracle([3, 3], lambda x: -x[0] * x[1])
        assert d.check_submodular(f)

    def test_submodular_witness_is_maximal(self):
        f = oracle([3, 3], lambda x: x[0] * x[1] + (2.0 if x == (2, 2) else 0.0))
        verdict = d.check_submodular(f)
        assert not verdict
        assert verdict.witness.point == (1, 1)  # the bumped corner dominates
        assert verdict.witness.value == pytest.approx(3.0)

    def test_separable_always_submodular(self):
        for s in range(5):
            assert d.check_submodular(random_separable(s))

    def test_submodular_call_budget(self):
        dom = d.LatticeDomain([4, 4, 4])
        f = d.OracleFunction(dom, lambda x: -x[0] * x[1] - x[1] * x[2])
        d.check_submodular(f)
        n = dom.n
        assert f.call_count <= 4 * dom.num_points * n * (n - 1) // 2

    def test_dr_concave_of_sum(self):
        f = oracle([3, 3], lambda x: math.sqrt(x[0] + x[1]))
        assert d.check_dr(f)

    def test_dr_fails_on_convex_coordinate(self):
        f = oracle([3], lambda x: x[0] ** 2)
        assert d.check_submodular(f)  # no cross pairs
        verdict = d.check_dr(f)
        assert not verdict
        assert verdict.witness.kind == "within"
        assert verdict.witness.value == pytest.approx(2.0)

    def test_dr_constant(self):
        assert d.check_dr(oracle([3, 3], lambda x: 7.5))

    def test_dr_implies_submodular(self):
        for s in range(6):
            fn, _, _ = quadratic_submodular(s, sizes=(3, 3, 3), dr=True)
            assert d.check_dr(fn)
            assert d.check_submodular(fn)

    def test_monotone(self):
        assert d.check_monotone(oracle([3, 3], lambda x: math.sqrt(x[0] + x[1])))
        verdict = d.check_monotone(oracle([3, 3], lambda x: -float(x[0])))
        assert not verdict
        assert verdict.witness.i == 0

    def test_checker_cap(self):
        f = oracle([3, 3], lambda x: 0.0)
        with pytest.raises(d.CapExceededError):
            d.check_submodular(f, cap=5)


class TestSeparable:
    def test_value_and_prefixes(self):
        dom = d.LatticeDomain([3, 3])
        s = d.SeparableFunction(dom, 1.0, [[2.0, -3.0], [-1.0, 4.0]])
        assert s.value((0, 0)) == pytest.approx(1.0)
        assert s.value((2, 1)) == pytest.approx(1.0 + (2 - 3) + (-1))
        table = s.values_over_domain()
        for x in dom.points():
            assert table[dom.flat_index(x)] == pytest.approx(s.value(x))

    def test_modularity_identity_exact(self):
        for seed in range(5):
            s = random_separable(seed, sizes=(3, 3))
            dom = s.domain
            pts = list(dom.points())
            for x in pts:
                for y in pts:
                    lo = tuple(min(a, b) for a, b in zip(x, y))
                    hi = tuple(max(a, b) for a, b in zip(x, y))
                    assert s.value(x) + s.value(y) == pytest.approx(
                        s.value(lo) + s.value(hi), abs=1e-12)

    def test_value_refuses_points_outside_the_domain(self):
        s = d.SeparableFunction(d.LatticeDomain([3, 3]), 0.0, [[1.0, 2.0], [3.0, 4.0]])
        for bad in [(3, 0), (0, -1), (1,), (1.5, 0)]:
            with pytest.raises(d.DomainError):
                s.value(bad)

    def test_from_level_values(self):
        dom = d.LatticeDomain([3, 2])
        s = d.SeparableFunction.from_level_values(dom, [[0.0, 1.0, 1.5], [0.0, 2.0]])
        assert s.value((0, 0)) == pytest.approx(0.0)
        assert s.value((2, 1)) == pytest.approx(3.5)

    def test_arithmetic_stays_separable(self):
        a = random_separable(1, sizes=(3, 3))
        b = random_separable(2, sizes=(3, 3))
        combo = 2.0 * a - b + 1.5
        assert isinstance(combo, d.SeparableFunction)
        for x in a.domain.points():
            assert combo.value(x) == pytest.approx(2 * a.value(x) - b.value(x) + 1.5)

    @pytest.mark.parametrize("c", [np.int64(2), np.float32(1.5), np.float64(-0.25), 3, True])
    def test_numpy_scalars_keep_arithmetic_separable(self, c):
        """Any real scalar shifts the constant, so the separable solvers and bounds still apply."""
        a = random_separable(1, sizes=(3, 4))
        for got, constant in ((a + c, a.constant + float(c)), (a - c, a.constant - float(c))):
            assert isinstance(got, d.SeparableFunction)
            assert got.constant == constant
            assert got._increments.tobytes() == a._increments.tobytes()
            assert d.minimize_separable(got)[0] == d.minimize_separable(a)[0]
            bound = d.separable_upper_bound(got, 0.0, (1, 2), "grow1")
            assert bound.value((1, 2)) == pytest.approx(got.value((1, 2)))


class TestOracle:
    def test_table_function_row_major(self):
        dom = d.LatticeDomain([2, 2])
        f = d.TableFunction(dom, [0.0, 1.0, 2.0, 3.0])
        assert f((0, 1)) == 1.0
        assert f((1, 0)) == 2.0

    def test_call_counting(self):
        f = oracle([3, 3], lambda x: 0.0)
        for _ in range(7):
            f((1, 1))
        assert f.call_count == 7
        f.reset_count()
        assert f.call_count == 0

    def test_composed_oracles_propagate_counts(self):
        f = oracle([3, 3], lambda x: 1.0)
        g = oracle([3, 3], lambda x: 2.0)
        h = f - g
        h((0, 0))
        assert f.call_count == 1 and g.call_count == 1

    def test_concurrent_counting(self):
        f = oracle([3, 3], lambda x: 0.0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: f((0, 0)), range(400)))
        assert f.call_count == 400

    def test_rejects_out_of_domain(self):
        f = oracle([3, 3], lambda x: 0.0)
        with pytest.raises(d.DomainError):
            f((3, 0))

    def test_require_refuses_fractional_coordinates(self):
        f = d.TableFunction(d.LatticeDomain([3, 3]), range(9))
        for bad in [(1.7, 0.2), (1, 0.5), (math.nan, 0), (math.inf, 0)]:
            with pytest.raises(d.DomainError, match="non-integer"):
                f(bad)
        assert f.call_count == 0
        assert f((2.0, 1.0)) == f((2, 1)) == 7.0
        assert f((np.int64(1), np.float64(0.0))) == 3.0
        assert f.domain.require([2.0, np.int32(1)]) == (2, 1)

    def test_table_of_matches(self):
        fn, _, _ = quadratic_submodular(0, sizes=(3, 3))
        table = d.table_of(fn)
        for x in fn.domain.points():
            assert table[fn.domain.flat_index(x)] == pytest.approx(fn(x))


class TestNonFiniteValues:
    """A NaN or an infinity from an oracle raises; it never reaches a comparison."""

    @staticmethod
    def nan_at(point, sizes=(3, 3)):
        return oracle(sizes, lambda x: math.nan if x == point else float(x[0] - x[1]))

    def test_call_and_batch_name_the_oracle_and_point(self):
        f = self.nan_at((1, 2))
        assert f((0, 0)) == 0.0
        with pytest.raises(ValueError, match=r"OracleFunction\(fn.*returned nan at point \(1, 2\)"):
            f((1, 2))
        with pytest.raises(ValueError, match=r"returned nan at point \(1, 2\)"):
            f.batch([[0, 0], [1, 2], [1, 2]])
        table = d.TableFunction(d.LatticeDomain([2]), [0.0, 0.0])
        table.values[1] = -math.inf
        with pytest.raises(ValueError, match=r"returned -inf at point \(1,\)"):
            table.batch([[0], [1]])
        composite = table + 1.0
        with pytest.raises(ValueError, match=r"returned -inf at point \(1,\)"):
            composite((1,))

    def test_checks_and_brute_force_raise(self):
        for run in (d.check_submodular, d.check_dr, d.check_monotone, d.dr_violation,
                    d.brute_force_minimize):
            with pytest.raises(ValueError, match="returned nan"):
                run(self.nan_at((2, 1)))

    def test_a_table_read_whole_is_refused_as_its_batch_is(self):
        """Every brute-force operation names the first non-finite point, row-major."""
        dom = d.LatticeDomain([3, 4])
        values = np.arange(12.0)
        values[6], values[9] = math.inf, math.nan
        table = d.TableFunction(dom, values, name="t")
        message = "OracleFunction(t, domain=[3, 4]) returned inf at point (1, 2)"
        with pytest.raises(ValueError) as err:
            table.batch(dom.point_array())
        assert str(err.value) == message
        weights = d.SeparableFunction.zero(dom)
        for run in (d.check_submodular, d.check_dr, d.check_monotone, d.dr_violation,
                    d.second_difference_extremes, d.brute_force_minimize, d.table_of,
                    lambda f: d.base_vertex_check(f, weights)):
            table.reset_count()
            with pytest.raises(ValueError) as err:
                run(table)
            assert str(err.value) == message
            assert table.call_count == 12

    @pytest.mark.parametrize("algorithm", ["modmod", "supsub", "subsup"])
    def test_solve_raises_instead_of_certifying(self, algorithm):
        g = oracle((3, 3), lambda x: 0.0)
        for point in [(0, 0), (1, 1)]:
            problem = d.DsProblem(self.nan_at(point), g)
            with pytest.raises(ValueError, match="returned nan"):
                d.solve(problem, d.SolveOptions(algorithm=algorithm))
