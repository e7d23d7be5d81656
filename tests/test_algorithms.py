import gc
import math
import re

import numpy as np
import pytest

import dsmin as d
from conftest import (
    bits,
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


    def test_chain_family_is_built_when_read(self, monkeypatch):
        p = sqrt_sum_problem()
        built = []

        def counting(dom, y):
            built.append(y)
            return d.adjacent_chain_family(dom, y)

        monkeypatch.setattr(d.algorithms, "adjacent_chain_family", counting)
        cert = d.certify_local_minimum(p, (1, 2))
        assert built == []
        family = cert.chain_family
        assert built == [(1, 2)] and cert.chain_family is family
        expected = d.adjacent_chain_family(p.domain, (1, 2))
        assert [c.increments for c in family] == [c.increments for c in expected]


class TestSeparableF:
    """Bounds read from a SeparableFunction's tables steer the loop as evaluated ones do."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_runs_as_behind_a_plain_oracle(self, seed):
        specs = d.generate_ensemble("coverage", {"count": 2, "sizes": (4, 3, 5)}, seed=seed)
        for spec in specs:
            p, _ = d.build_problem(spec, validate=False)
            assert isinstance(p.f, d.SeparableFunction)
            plain = d.DsProblem(d.OracleFunction(p.domain, batch_fn=p.f._batch), p.g)
            for options in ({"algorithm": "modmod"}, {"algorithm": "modmod", "budget": 3},
                            {"algorithm": "supsub"}):
                runs = [d.solve(q, d.SolveOptions(**options)) for q in (p, plain)]
                sep, ref = [(r.status, [it.point for it in r.iterates],
                             [(e.label, e.accepted) for e in r.events],
                             r.certificate and r.certificate.neighbors) for r in runs]
                assert sep == ref, options


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

    @pytest.mark.parametrize("algorithm,field,value", [
        ("modmod", "epsilon", math.nan), ("modmod", "epsilon", math.inf),
        ("modmod", "epsilon", -0.1), ("supsub", "dr_coeff", math.inf),
        ("modmod", "dr_coeff", math.nan), ("subsup", "dr_coeff", -1.0),
        ("modmod", "budget", -1)])
    def test_bad_values_rejected_up_front(self, algorithm, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            d.SolveOptions(algorithm=algorithm, **{field: value})

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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1])
    def test_bad_epsilon_rejected_with_or_without_v_x1(self, epsilon):
        p = sqrt_sum_problem()
        for v_x1 in (None, -1.0):
            with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
                d.predicted_iteration_bound(p, epsilon, v_x1=v_x1)
        assert p.f.call_count == p.g.call_count == 0

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


def test_solves_leave_no_reference_cycles():
    """Oracles, bounds and reports are freed by reference counting: solves leave
    nothing for the cyclic GC, so memory does not grow between its collections."""
    spec = d.generate_ensemble("coverage", {"count": 1, "sizes": [4, 3, 5], "regions": 4},
                               seed=3)[0]

    def solve_all():
        problem, _ = d.build_problem(spec)
        coeff = d.dr_violation(problem.f)
        for algorithm in ("modmod", "supsub", "subsup"):
            d.solve(problem, d.SolveOptions(algorithm=algorithm, dr_coeff=coeff))

    solve_all()  # the first solve leaves one-off import garbage
    gc.collect()
    gc.disable()
    try:
        solve_all()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# A repeated surrogate is solved once
# ---------------------------------------------------------------------------

INNER_SOLVERS = ("double_greedy_maximize", "minimize_separable", "minimize_separable_cardinality")
MEMO_CASES = [(algorithm, budget, policy)
              for algorithm, budget in (("supsub", None), ("modmod", None), ("modmod", 3))
              for policy in d.algorithms.UB_POLICIES]


def _coverage_problems():
    return [d.build_problem(spec, validate=False)[0]
            for seed in range(3)
            for spec in d.generate_ensemble("coverage", {"count": 2, "sizes": [4, 4, 4]},
                                            seed=seed)]


def _counted_solve(monkeypatch, p, opts, memo=True):
    """The report, the inner solver runs, the (f, g) calls of one solve and
    the rows of g that supsub's row memo or the chain memo of modmod and
    subsup served instead of evaluating them.

    ``memo=False`` patches off all three memos: the repeated-surrogate memo,
    the row memo and the chain memo."""
    runs, served = [], []
    with monkeypatch.context() as m:
        for name in INNER_SOLVERS:
            def counted(*args, _real=getattr(d.algorithms, name)):
                runs.append(args)
                return _real(*args)
            m.setattr(d.algorithms, name, counted)

        def rows(sweep, _real=d.lattice._RememberedSweep.rows):
            before = sweep.f.g.call_count
            values = _real(sweep)
            if sweep.f.g.call_count == before:
                served.append(values.size)
            return values
        m.setattr(d.lattice._RememberedSweep, "rows", rows)

        def chain_bounds(g, _real=d.algorithms._chain_bounds):
            bound = _real(g)

            def counted(x, chain):
                before = g.call_count
                h_g = bound(x, chain)
                served.append(chain.length + 1 - (g.call_count - before))
                return h_g
            return counted
        m.setattr(d.algorithms, "_chain_bounds", chain_bounds)
        if not memo:
            m.setattr(d.algorithms, "_solve_once", lambda solver: solver)
            m.setattr(d.algorithms, "_RememberedRows", lambda g: g)
            m.setattr(d.algorithms, "_chain_bounds",
                      lambda g: lambda x, chain: d.chain_lower_bound(g, x, chain))
        f0, g0 = p.f.call_count, p.g.call_count
        report = d.solve(p, opts)
    return report, len(runs), (p.f.call_count - f0, p.g.call_count - g0), sum(served)


def _trajectory(report):
    """Everything of a run but its counters and times; floats as bits."""
    return (report.status, [it.point for it in report.iterates],
            [(e.t, e.point, e.label, e.accepted, bits(e.v), bits(e.f_val), bits(e.g_val),
              bits(e.surrogate)) for e in report.events],
            report.certificate and bits(report.certificate.neighbors))


class TestRepeatedSurrogates:
    @pytest.mark.parametrize("algorithm,budget,policy", MEMO_CASES)
    def test_only_counters_move(self, monkeypatch, algorithm, budget, policy):
        """With the memos patched off, the same run.  supsub's g counter drops
        by exactly the rows the row memo served plus the skipped double greedy
        runs' 2 + 2 * sum(k_i - 1) calls; modmod's by exactly the chain rows
        the chain memo served."""
        skipped_total = served_total = 0
        for p in _coverage_problems():
            opts = d.SolveOptions(algorithm=algorithm, budget=budget, ub_policy=policy)
            on, runs_on, calls_on, served = _counted_solve(monkeypatch, p, opts)
            off, runs_off, calls_off, served_off = _counted_solve(monkeypatch, p, opts,
                                                                  memo=False)
            assert _trajectory(on) == _trajectory(off)
            per_run = 2 + 2 * sum(k - 1 for k in p.domain.sizes) if algorithm == "supsub" else 0
            skipped = runs_off - runs_on
            assert skipped >= 0 and served_off == 0
            assert calls_off == (calls_on[0], calls_on[1] + served + per_run * skipped)
            assert [e.calls_f for e in on.events] == [e.calls_f for e in off.events]
            saved = [b.calls_g - a.calls_g for a, b in zip(on.events, off.events)]
            assert saved == sorted(saved)
            # runs and chains after the last event (whose candidate was x) save calls too
            assert saved[-1] <= served + per_run * skipped
            skipped_total += skipped
            served_total += served
        assert skipped_total > 0  # the ensemble does repeat surrogates
        assert served_total > 0  # and g's rows: supsub's sweeps, modmod's chains

    def test_double_greedy_runs_once_at_zero_for_a_separable_f(self, monkeypatch):
        """grow1 and grow2 give one bound at x = 0; its candidate 0 moves nowhere."""
        dom = d.LatticeDomain([3, 3])
        f = d.SeparableFunction(dom, 0.0, [[1.0, 2.0], [1.0, 3.0]])
        g = d.TableFunction(dom, np.zeros(dom.num_points))
        p = d.DsProblem(f, g)
        opts = d.SolveOptions(algorithm="supsub")
        report, runs, (_, calls_g), _ = _counted_solve(monkeypatch, p, opts)
        assert report.status == "certified_local_min" and report.final_point == (0, 0)
        assert runs == 1
        # g(0) for the start, one double greedy run, the two feasible neighbours of 0
        assert calls_g == 1 + (2 + 2 * 4) + 2
        assert _counted_solve(monkeypatch, p, opts, memo=False)[1] == 2

    def test_a_zero_of_the_other_sign_is_solved_again(self):
        dom = d.LatticeDomain([3, 2])
        solved = []
        solve = d.algorithms._solve_once(lambda s: solved.append(s) or len(solved))

        def surrogate(constant, zero):
            return d.SeparableFunction(dom, constant, [[1.0, zero], [2.0]])

        assert solve(surrogate(0.0, 0.0)) == 1
        assert solve(surrogate(0.0, 0.0)) == 1
        assert solve(surrogate(-0.0, 0.0)) == 2   # the constant's sign
        assert solve(surrogate(-0.0, -0.0)) == 3  # an increment's sign
        assert solve(surrogate(0.0, 0.0)) == 4    # only the last surrogate is kept

    @pytest.mark.parametrize("algorithm,budget", [("supsub", None), ("modmod", None),
                                                  ("modmod", 3)])
    def test_a_second_solve_makes_the_same_calls(self, monkeypatch, algorithm, budget):
        """The memo lives for one solve: nothing carries over to the next."""
        for p in _coverage_problems()[:2]:
            opts = d.SolveOptions(algorithm=algorithm, budget=budget)
            first, second = (_counted_solve(monkeypatch, p, opts) for _ in range(2))
            assert first[1:] == second[1:]
            assert [(e.calls_f, e.calls_g) for e in first[0].events] == \
                [(e.calls_f, e.calls_g) for e in second[0].events]


# ---------------------------------------------------------------------------
# modmod and subsup evaluate only the chain rows the last chain lacks
# ---------------------------------------------------------------------------

CHAIN_CASES = [(algorithm, budget, mode)
               for algorithm, budget in (("modmod", None), ("modmod", 3), ("subsup", None))
               for mode in ("canonical", "randomized")]


def _poisoned(g, point, times=math.inf):
    """g, but inf at ``point`` for its first ``times`` evaluations there."""
    left = [times]

    def batch_fn(X):
        values = g._values(X)
        hit = (X == point).all(axis=1)
        if hit.any() and left[0] > 0:
            left[0] -= 1
            values[hit] = math.inf
        return values
    return d.OracleFunction(g.domain, batch_fn=batch_fn)


class TestChainMemo:
    @pytest.mark.parametrize("algorithm,budget,mode", CHAIN_CASES)
    def test_memo_on_and_off_give_the_same_run(self, monkeypatch, algorithm, budget, mode):
        """The same trajectory and f calls; g's counter drops by exactly the chain
        rows the memo served."""
        served_total = 0
        for p in _coverage_problems():
            opts = d.SolveOptions(algorithm=algorithm, budget=budget, chain_mode=mode, seed=5)
            on, _, calls_on, served = _counted_solve(monkeypatch, p, opts)
            off, _, calls_off, _ = _counted_solve(monkeypatch, p, opts, memo=False)
            assert _trajectory(on) == _trajectory(off)
            # modmod's and subsup's other memos save no calls of f or g
            assert calls_off == (calls_on[0], calls_on[1] + served)
            served_total += served
        assert served_total > 0

    @pytest.mark.parametrize("algorithm", ["modmod", "subsup"])
    def test_a_refused_row_raises_as_without_the_memo(self, monkeypatch, algorithm):
        """g is inf only at a point the second chain reaches first: the same
        ValueError, naming that point, with the memo on and off."""
        opts = d.SolveOptions(algorithm=algorithm)
        for p in _coverage_problems():
            report = d.solve(p, opts)
            # g is evaluated at the events and the first chain before the second chain
            if len(report.iterates) < 2 or report.iterates[1].label == "descending_neighbor":
                continue
            seen = {e.point for e in report.events if e.t <= 1}
            seen.update(d.chain_containing(p.domain, p.domain.zero).points)
            second = d.chain_containing(p.domain, report.iterates[1].point).points
            point = next((y for y in second if y not in seen), None)
            if point is not None:
                break
        assert point is not None
        bad = d.DsProblem(p.f, _poisoned(p.g, point))
        messages = []
        for memo in (True, False):
            with pytest.raises(ValueError, match=f"at point {re.escape(str(point))}") as err:
                _counted_solve(monkeypatch, bad, opts, memo=memo)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_a_refused_row_is_not_kept(self):
        """A chain whose batch is refused does not replace the kept chain, so
        asking for it again evaluates the same rows again."""
        p = _coverage_problems()[0]
        dom = p.domain
        x0, x1 = dom.zero, (1, 2, 0)
        c0, c1 = (d.chain_containing(dom, x) for x in (x0, x1))
        point = next(y for y in c1.points if y not in c0.points)
        g = _poisoned(p.g, point, times=1)
        bound = d.algorithms._chain_bounds(g)
        bound(x0, c0)
        before = g.call_count
        with pytest.raises(ValueError, match="returned inf"):
            bound(x1, c1)
        refused = g.call_count - before
        h = bound(x1, c1)
        assert g.call_count - before == 2 * refused
        ref = d.chain_lower_bound(p.g, x1, c1)
        assert bits(h.constant) == bits(ref.constant)
        assert h._increments.tobytes() == ref._increments.tobytes()

    @pytest.mark.parametrize("mode", ["canonical", "randomized"])
    def test_bounds_are_the_public_ones_bit_for_bit(self, mode):
        """Along random anchors, each bound equals chain_lower_bound's bit for
        bit and costs the rows outside the common prefix and suffix with the
        last chain; chain_lower_bound itself costs r + 1 calls every time."""
        p = _coverage_problems()[1]
        dom, rng = p.domain, np.random.default_rng(3)
        public = d.OracleFunction(dom, batch_fn=p.g._values)
        bound = d.algorithms._chain_bounds(p.g)
        last = None
        for k in range(12):
            x = tuple(rng.integers(0, dom.sizes).tolist())
            chain = d.chain_containing(dom, x, mode=mode, seed=k)
            rows = chain.point_array()
            if last is None:
                want = len(rows)
            else:
                same = (rows == last).all(axis=1)
                want = 0 if same.all() else len(rows) - np.argmin(same) - np.argmin(same[::-1])
            before, public_before = p.g.call_count, public.call_count
            got, ref = bound(x, chain), d.chain_lower_bound(public, x, chain)
            assert p.g.call_count - before == want
            assert public.call_count - public_before == chain.length + 1
            assert bits(got.constant) == bits(ref.constant)
            assert got._increments.tobytes() == ref._increments.tobytes()
            last = rows
        with pytest.raises(ValueError, match="chain does not contain"):
            bound((0, 0, 1), d.chain_containing(dom, (1, 0, 0)))
