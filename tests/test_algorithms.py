import math

import numpy as np
import pytest

import dsmin as d
from conftest import (
    coverage_function,
    ds_ensemble,
    quadratic_submodular,
    random_separable,
    sqrt_sum_problem,
)


class TestAcceptStep:
    def test_relative_threshold(self):
        assert d.accept_step(-2.0, -2.3, 0.1)
        assert not d.accept_step(-2.0, -2.1, 0.1)

    def test_zero_epsilon_strict(self):
        assert not d.accept_step(-2.0, -2.0, 0.0)
        assert d.accept_step(-2.0, -2.0 - 1e-6, 0.0)
        assert not d.accept_step(5.0, 5.0, 0.0)

    def test_positive_values_never_accept_increase(self):
        assert not d.accept_step(2.0, 2.1, 0.1)
        assert d.accept_step(2.0, 1.5, 0.1)


class TestCertification:
    def test_interior_minimum(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: float((x[0] - 1) ** 2 + (x[1] - 1) ** 2))
        g = d.OracleFunction(dom, lambda x: 0.0)
        cert = d.certify_local_minimum(d.DsProblem(f, g), (1, 1))
        assert cert.passed
        assert len(cert.neighbors) == 4
        assert cert.chain_family

    def test_descending_neighbor_found(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: float((x[0] - 1) ** 2 + (x[1] - 1) ** 2))
        g = d.OracleFunction(dom, lambda x: 0.0)
        cert = d.certify_local_minimum(d.DsProblem(f, g), (0, 0))
        assert not cert.passed
        nbr, val = cert.best_descending
        assert nbr in {(1, 0), (0, 1)}
        assert val == pytest.approx(1.0)

    def test_two_level_flat(self):
        dom = d.LatticeDomain([2, 2])
        zero = d.OracleFunction(dom, lambda x: 0.0)
        cert = d.certify_local_minimum(d.DsProblem(zero, zero), (0, 0))
        assert cert.passed

    def test_budget_restricts_neighbors(self):
        p = sqrt_sum_problem()
        cert = d.certify_local_minimum(p, (0, 2), budget=2)
        up_points = [nbr for nbr, _ in cert.neighbors if sum(nbr) > 2]
        assert not up_points


class TestToyProblem:
    def test_all_algorithms_reach_global_min(self):
        for algo in ("subsup", "supsub", "modmod"):
            p = sqrt_sum_problem()
            report = d.solve(p, d.SolveOptions(algorithm=algo))
            assert report.final_point == (2, 2)
            assert report.final_value == pytest.approx(-2.0)
            assert report.status == "certified_local_min"

    def test_modmod_single_step(self):
        p = sqrt_sum_problem()
        report = d.modmod(p, d.SolveOptions(algorithm="modmod"))
        assert report.accepted_steps == 1

    def test_modmod_with_budget(self):
        p = sqrt_sum_problem()
        report = d.modmod(p, d.SolveOptions(algorithm="modmod", budget=2))
        assert sum(report.final_point) <= 2
        assert report.final_value == pytest.approx(math.sqrt(2) - 2)

    def test_identical_parts_converge_immediately(self):
        fn = coverage_function(3, sizes=(3, 3))
        p = d.DsProblem(fn, fn)
        for algo in ("subsup", "supsub", "modmod"):
            report = d.solve(p, d.SolveOptions(algorithm=algo))
            assert report.final_point == (0, 0)
            assert report.status == "certified_local_min"
            assert report.accepted_steps == 0

    def test_subsup_with_subgradient_inner(self):
        p = sqrt_sum_problem()
        opts = d.SolveOptions(algorithm="subsup", sfm_method="subgradient",
                              sfm_options=d.SubgradientOptions(iterations=200))
        report = d.subsup(p, opts)
        assert report.final_value == pytest.approx(-2.0)

    def test_supsub_descends_on_separable_quadratic(self):
        dom = d.LatticeDomain([4, 4])
        f = d.OracleFunction(dom, lambda x: float((x[0] - 2) ** 2 + (x[1] - 1) ** 2))
        g = d.OracleFunction(dom, lambda x: 0.0)
        report = d.supsub(d.DsProblem(f, g), d.SolveOptions(algorithm="supsub"))
        assert report.status == "certified_local_min"
        assert report.final_value == pytest.approx(0.0)
        assert report.final_point == (2, 1)


class TestDescentAndTraces:
    def test_monotone_descent_three_algorithms(self):
        for problem, _ in ds_ensemble(10, sizes=(3, 3, 3)):
            for algo in ("subsup", "supsub", "modmod"):
                report = d.solve(problem, d.SolveOptions(algorithm=algo))
                vs = [rec.v for rec in report.iterates]
                for older, newer in zip(vs, vs[1:]):
                    assert newer <= older + 1e-12

    def test_randomized_chains_reproducible(self):
        problem, _ = ds_ensemble(2, sizes=(3, 3, 3))[1]
        opts = lambda s: d.SolveOptions(algorithm="modmod", chain_mode="randomized", seed=s)
        r1 = d.modmod(problem, opts(5))
        r2 = d.modmod(problem, opts(5))
        assert [rec.point for rec in r1.iterates] == [rec.point for rec in r2.iterates]

    def test_certified_status_verified_by_enumeration(self):
        for problem, _ in ds_ensemble(6, sizes=(3, 3, 3)):
            report = d.solve(problem, d.SolveOptions(algorithm="modmod"))
            if report.status != "certified_local_min":
                continue
            x = report.final_point
            vx = problem.v(x)
            dom = problem.domain
            for i in range(dom.n):
                for delta in (1, -1):
                    ni = x[i] + delta
                    if 0 <= ni <= dom.sizes[i] - 1:
                        nbr = x[:i] + (ni,) + x[i + 1:]
                        assert vx <= problem.v(nbr) + 1e-12

    def test_modmod_surrogate_tight_at_iterates(self):
        for problem, _ in ds_ensemble(5, sizes=(3, 3, 3)):
            coeff = d.dr_violation(problem.f)
            report = d.modmod(problem, d.SolveOptions(algorithm="modmod"))
            for rec in report.iterates:
                x = rec.point
                chain = d.chain_containing(problem.domain, x)
                h_g = d.chain_lower_bound(problem.g, x, chain)
                m_f = d.separable_upper_bound(problem.f, coeff, x, "grow1")
                surrogate = m_f - h_g
                assert surrogate.value(x) == pytest.approx(problem.v(x), abs=1e-9)

    def test_event_log_contains_rejections_last(self):
        p = sqrt_sum_problem()
        report = d.modmod(p, d.SolveOptions(algorithm="modmod"))
        assert report.events[0].label == "start"
        accepted = [r for r in report.events if r.accepted]
        assert [r.point for r in accepted] == [r.point for r in report.iterates]

    def test_iter_budget_status(self):
        dom = d.LatticeDomain([4, 4])
        f = d.OracleFunction(dom, lambda x: float((x[0] - 3) ** 2 + (x[1] - 3) ** 2))
        g = d.OracleFunction(dom, lambda x: 0.0)
        report = d.modmod(d.DsProblem(f, g), d.SolveOptions(algorithm="modmod", max_iters=1))
        assert report.status == "iter_budget"

    def test_budget_only_for_modmod(self):
        with pytest.raises(ValueError):
            d.SolveOptions(algorithm="subsup", budget=2)

    def test_unknown_sfm_method_rejected_up_front(self):
        with pytest.raises(ValueError, match="sfm_method"):
            d.SolveOptions(algorithm="subsup", sfm_method="magic")
        for method in ("brute", "brute_force", "subgrad", "subgradient"):
            d.SolveOptions(algorithm="subsup", sfm_method=method)


class TestEpsilonAndPredictedBound:
    def test_epsilon_blocks_small_steps(self):
        p = sqrt_sum_problem()
        report = d.modmod(p, d.SolveOptions(algorithm="modmod", epsilon=0.5))
        vs = [rec.v for rec in report.iterates]
        for older, newer in zip(vs, vs[1:]):
            assert newer <= older - 0.5 * abs(older) + 1e-12

    def test_zero_objective_bound_is_zero(self):
        fn = coverage_function(1, sizes=(3, 3))
        p = d.DsProblem(fn, fn)
        pred = d.predicted_iteration_bound(p, 0.1)
        assert pred.small_m == 0.0
        assert pred.bound == 0.0

    def test_bound_given_v_x1_makes_no_f_calls(self):
        problems = [sqrt_sum_problem()] + [p for p, _ in ds_ensemble(3, sizes=(3, 3, 3))]
        for spec in d.generate_ensemble("random_table_autosplit", {"count": 2, "sizes": (3, 4)}):
            problems.append(d.build_problem(spec, validate=False)[0])  # f not monotone
        for p in problems:
            _, mono_f = d.monotone_form(p.f)
            _, mono_g = d.monotone_form(p.g)
            big_m = mono_f(p.domain.zero) - mono_g(p.domain.k_max)
            calls = p.f.call_count
            pred = d.predicted_iteration_bound(p, 0.1, v_x1=-1.0)
            assert p.f.call_count == calls
            assert np.float64(pred.big_m).tobytes() == np.float64(big_m).tobytes()

    def test_toy_bound_dominates_observed(self):
        p = sqrt_sum_problem()
        report = d.modmod(p, d.SolveOptions(algorithm="modmod", epsilon=0.1))
        pred = report.predicted
        assert pred is not None
        assert pred.big_m == pytest.approx(-4.0)
        assert pred.small_m == pytest.approx(-2.0)
        assert pred.bound == pytest.approx(math.log(2.0) / 0.1)
        assert report.accepted_steps <= pred.bound + 1

    def test_bound_invariant_under_uniform_scaling(self):
        p = sqrt_sum_problem()
        scaled = d.DsProblem(10.0 * p.f, 10.0 * p.g)
        b1 = d.predicted_iteration_bound(p, 0.1)
        b2 = d.predicted_iteration_bound(scaled, 0.1)
        assert b1.bound == pytest.approx(b2.bound)

    def test_ensemble_iteration_counts_within_bound(self):
        for problem, _ in ds_ensemble(10, sizes=(3, 3, 3)):
            report = d.modmod(problem, d.SolveOptions(algorithm="modmod", epsilon=0.1))
            pred = report.predicted
            if pred is None or pred.small_m == 0.0:
                continue
            assert report.accepted_steps <= pred.bound + 1
