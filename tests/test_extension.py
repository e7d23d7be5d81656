import math
import random

import numpy as np
import pytest

import dsmin as d
from conftest import quadratic_submodular, random_separable, submodular_ensemble


class TestProfile:
    def test_indicator(self):
        dom = d.LatticeDomain([3, 3])
        profile = d.profile_from_point(dom, (1, 0))
        assert profile.levels[0].tolist() == [1.0, 0.0]
        assert profile.levels[1].tolist() == [0.0, 0.0]
        assert d.profile_from_point(dom, (0, 0)).levels[0].tolist() == [0.0, 0.0]
        assert d.profile_from_point(dom, dom.k_max).levels[1].tolist() == [1.0, 1.0]

    def test_validation(self):
        dom = d.LatticeDomain([3, 3])
        with pytest.raises(ValueError):
            d.Profile(dom, [[0.2, 0.8], [0.5, 0.5]])  # increasing within coordinate
        with pytest.raises(ValueError):
            d.Profile(dom, [[1.5, 0.5], [0.5, 0.5]])  # above 1
        with pytest.raises(ValueError):
            d.Profile(dom, [[0.5, 0.5]])  # wrong arity

    def test_breakpoints(self):
        dom = d.LatticeDomain([3, 3])
        profile = d.Profile(dom, [[0.8, 0.5], [0.5, 0.0]])
        assert profile.breakpoints().tolist() == [0.5, 0.8, 1.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_breakpoints_equal_the_unique_positive_values(self, seed):
        """Rounded levels repeat within and across coordinates, and hold 0.0,
        -0.0 (validate=False) and 1.0: the breakpoints are np.unique's
        positive values, plus 1.0, bit for bit."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 6, size=rng.integers(1, 5)).tolist()
        levels = [np.sort(np.round(rng.uniform(-0.3, 1.3, size=k - 1), 1).clip(0.0, 1.0))[::-1]
                  for k in sizes]
        levels[0][-1] = -0.0 if seed % 2 else 0.0
        profile = d.Profile(d.LatticeDomain(sizes), levels, validate=False)
        values = np.unique(np.concatenate(levels + [np.ones(1)]))
        assert profile.breakpoints().tobytes() == values[values > 0.0].tobytes()


class TestLevelAt:
    def test_case_split(self):
        assert d.level_at([0.8, 0.5], 0.9) == 0
        assert d.level_at([0.8, 0.5], 0.6) == 1
        assert d.level_at([0.8, 0.5], 0.3) == 2

    def test_indicator_recovers_point(self):
        dom = d.LatticeDomain([4, 3])
        for y in dom.points():
            profile = d.profile_from_point(dom, y)
            for t in (0.25, 0.5, 1.0):
                assert profile.point_at(t) == y

    def test_tie_takes_deeper_level(self):
        assert d.level_at([0.5, 0.5], 0.5) == 2

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            d.level_at([0.5], 0.0)
        with pytest.raises(ValueError):
            d.level_at([0.5], 1.2)


class TestGreedyExtension:
    def test_single_coordinate(self):
        dom = d.LatticeDomain([3])
        f = d.TableFunction(dom, [0.0, 2.0, 3.0])
        value, w = d.greedy_extension(f, d.Profile(dom, [[0.8, 0.5]]))
        assert value == pytest.approx(2.1)
        assert w.tables[0].tolist() == [2.0, 1.0]
        # threshold form of the same integral: 0.5*3 + 0.3*2 + 0.2*0
        assert value == pytest.approx(0.5 * 3 + 0.3 * 2)

    def test_two_coordinates(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: -x[0] * x[1])
        profile = d.Profile(dom, [[0.9, 0.4], [0.7, 0.2]])
        value, w = d.greedy_extension(f, profile)
        assert value == pytest.approx(-1.5)
        assert w.tables[0].tolist() == [0.0, -1.0]
        assert w.tables[1].tolist() == [-1.0, -2.0]
        assert w.constant == pytest.approx(0.0)

    def test_indicator_recovery(self):
        for fn in submodular_ensemble(4, sizes=(3, 3, 3)):
            for y in fn.domain.points():
                value, _ = d.greedy_extension(fn, d.profile_from_point(fn.domain, y))
                assert value == pytest.approx(fn(y), abs=1e-9)

    def test_oracle_call_count(self):
        dom = d.LatticeDomain([4, 3])
        f = d.OracleFunction(dom, lambda x: float(sum(x)))
        profile = d.Profile.constant(dom, 0.5)
        d.greedy_extension(f, profile)
        assert f.call_count == profile.entry_count() + 1

    def test_levels_rising_within_tolerance_keep_their_gains(self):
        f = d.TableFunction(d.LatticeDomain([3]), [0, -1, 5])
        _, w = d.greedy_extension(f, d.Profile(f.domain, [[0.5, 0.5 + 1e-10]]))
        assert [t.tolist() for t in w.tables] == [[-1.0, 6.0]]
        assert [w.value((j,)) for j in range(3)] == [0.0, -1.0, 5.0]

    def test_invalid_profile_rejected(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: 0.0)
        bad = d.Profile(dom, [[0.2, 0.8], [0.5, 0.5]], validate=False)
        with pytest.raises(ValueError):
            d.greedy_extension(f, bad)

    def test_extension_value_is_inner_product(self):
        fn, _, _ = quadratic_submodular(11, sizes=(3, 4))
        rng = np.random.default_rng(5)
        for _ in range(5):
            levels = [np.sort(rng.uniform(0, 1, size=k - 1))[::-1]
                      for k in fn.domain.sizes]
            profile = d.Profile(fn.domain, levels)
            value, w = d.greedy_extension(fn, profile)
            dot = sum(float(w.tables[i] @ profile.levels[i]) for i in range(fn.domain.n))
            assert value == pytest.approx(w.constant + dot, abs=1e-9)

    def test_other_chain_weights_never_beat_greedy(self):
        # weights from arbitrary chains score <= the greedy value at profile
        fn, _, _ = quadratic_submodular(12, sizes=(3, 3))
        dom = fn.domain
        rng = np.random.default_rng(9)
        for trial in range(10):
            levels = [np.sort(rng.uniform(0, 1, size=k - 1))[::-1] for k in dom.sizes]
            profile = d.Profile(dom, levels)
            value, _ = d.greedy_extension(fn, profile)
            y = tuple(int(rng.integers(0, k)) for k in dom.sizes)
            chain = d.chain_containing(dom, y, mode="randomized",
                                       rng=random.Random(trial))
            w = d.chain_lower_bound(fn, y, chain)
            dot = sum(float(w.tables[i] @ profile.levels[i]) for i in range(dom.n))
            assert w.constant + dot <= value + 1e-9


class TestChains:
    def test_canonical_example(self):
        dom = d.LatticeDomain([3, 3])
        chain = d.chain_containing(dom, (1, 1))
        assert list(chain.increments) == [0, 1, 0, 1]
        assert chain.points == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
        assert chain.contains((1, 1))

    def test_contains_zero_and_top(self):
        dom = d.LatticeDomain([3, 4])
        assert d.chain_containing(dom, (0, 0)).contains((0, 0))
        assert d.chain_containing(dom, dom.k_max).contains(dom.k_max)

    def test_randomized_is_seeded_and_valid(self):
        dom = d.LatticeDomain([4, 3, 3])
        y = (2, 1, 0)
        c1 = d.chain_containing(dom, y, mode="randomized", seed=42)
        c2 = d.chain_containing(dom, y, mode="randomized", seed=42)
        c3 = d.chain_containing(dom, y, mode="randomized", seed=43)
        assert c1.increments == c2.increments
        assert c1.increments != c3.increments
        assert c1.contains(y)
        assert c1.points[-1] == dom.k_max

    def test_malformed_increments_rejected(self):
        dom = d.LatticeDomain([3, 3])
        with pytest.raises(ValueError):
            d.Chain(dom, [0, 0, 0, 1])

    @pytest.mark.parametrize("mode", ["canonical", "randomized"])
    def test_increments_match_the_list_built_chain(self, mode):
        """The array-built chain has the increments of the per-coordinate
        lists it replaced, shuffled by the same random stream."""
        rng = np.random.default_rng(5)
        for seed in range(20):
            sizes = rng.integers(2, 6, size=rng.integers(1, 7)).tolist()
            dom = d.LatticeDomain(sizes)
            y = tuple(rng.integers(0, sizes).tolist())
            before = [i for i in range(dom.n) for _ in range(y[i])]
            after = [i for i in range(dom.n) for _ in range(sizes[i] - 1 - y[i])]
            if mode == "randomized":
                stream = random.Random(seed)
                stream.shuffle(before)
                stream.shuffle(after)
            chain = d.chain_containing(dom, y, mode=mode, rng=random.Random(seed))
            assert chain.increments == tuple(before + after)
            assert chain.length == len(before + after) and chain.contains(y)

    def test_public_entries_still_refuse_bad_points(self):
        dom = d.LatticeDomain([3, 3])
        g = d.OracleFunction(dom, lambda x: float(x[0] * x[1]))
        chain = d.chain_containing(dom, (1, 1))
        for bad in [(3, 0), (True, 1), (1.5, 0), (1,)]:
            with pytest.raises(d.DomainError):
                d.chain_containing(dom, bad)
            with pytest.raises(d.DomainError):
                chain.contains(bad)
            with pytest.raises(d.DomainError):
                d.chain_lower_bound(g, bad, chain)
        with pytest.raises(ValueError, match="unknown chain mode"):
            d.chain_containing(dom, (1, 1), mode="sideways")
        assert g.call_count == 0


class TestChainLowerBound:
    def test_hand_example(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: -x[0] * x[1])
        h = d.chain_lower_bound(f, (1, 1), d.chain_containing(dom, (1, 1)))
        assert h.tables[0].tolist() == [0.0, -1.0]
        assert h.tables[1].tolist() == [-1.0, -2.0]
        assert h.value((1, 1)) == pytest.approx(f((1, 1)))
        assert h.value((0, 1)) == pytest.approx(-1.0)
        assert h.value((0, 1)) <= f((0, 1))

    def test_tight_on_chain_and_below_everywhere(self):
        for fn in submodular_ensemble(6, sizes=(3, 3, 3)):
            dom = fn.domain
            for seed, y in [(0, (0, 0, 0)), (1, (1, 2, 0)), (2, dom.k_max)]:
                chain = d.chain_containing(dom, y, mode="randomized", seed=seed)
                h = d.chain_lower_bound(fn, y, chain)
                for p in chain.points:
                    assert h.value(p) == pytest.approx(fn(p), abs=1e-9)
                for x in dom.points():
                    assert h.value(x) <= fn(x) + 1e-9

    def test_separable_reproduced_exactly(self):
        s = random_separable(7, sizes=(3, 4))
        for seed in range(3):
            chain = d.chain_containing(s.domain, (1, 2), mode="randomized", seed=seed)
            h = d.chain_lower_bound(s, (1, 2), chain)
            for x in s.domain.points():
                assert h.value(x) == pytest.approx(s.value(x), abs=1e-9)

    def test_top_point_always_tight(self):
        fn, _, _ = quadratic_submodular(3, sizes=(3, 3))
        chain = d.chain_containing(fn.domain, (1, 0))
        h = d.chain_lower_bound(fn, (1, 0), chain)
        assert h.value(fn.domain.k_max) == pytest.approx(fn(fn.domain.k_max), abs=1e-9)

    def test_requires_containing_chain(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: 0.0)
        chain = d.chain_containing(dom, (2, 0))
        assert not chain.contains((1, 1))
        with pytest.raises(ValueError):
            d.chain_lower_bound(f, (1, 1), chain)

    def test_oracle_cost(self):
        dom = d.LatticeDomain([4, 4])
        f = d.OracleFunction(dom, lambda x: float(sum(x)))
        chain = d.chain_containing(dom, (2, 1))
        d.chain_lower_bound(f, (2, 1), chain)
        assert f.call_count == chain.length + 1


class TestAdjacentChainFamily:
    def test_interior_point(self):
        dom = d.LatticeDomain([3, 3])
        family = d.adjacent_chain_family(dom, (1, 1))
        assert len(family) == 2
        idx = 2  # (1,1) sits at chain position 2
        befores = {c.increments[idx - 1] for c in family}
        afters = {c.increments[idx] for c in family}
        assert befores == {0, 1}
        assert afters == {0, 1}

    def test_corners(self):
        dom = d.LatticeDomain([3, 3])
        zero_family = d.adjacent_chain_family(dom, (0, 0))
        assert {c.increments[0] for c in zero_family} == {0, 1}
        top_family = d.adjacent_chain_family(dom, (2, 2))
        assert {c.increments[-1] for c in top_family} == {0, 1}

    def test_coverage_property_random(self):
        dom = d.LatticeDomain([3, 4, 2])
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = tuple(int(rng.integers(0, k)) for k in dom.sizes)
            family = d.adjacent_chain_family(dom, y)
            assert len(family) <= dom.n
            idx = sum(y)
            for c in family:
                assert c.contains(y)
            feasible_before = {i for i in range(dom.n) if y[i] >= 1}
            feasible_after = {i for i in range(dom.n) if y[i] <= dom.sizes[i] - 2}
            if feasible_before:
                assert {c.increments[idx - 1] for c in family} == feasible_before
            if feasible_after:
                assert {c.increments[idx] for c in family} == feasible_after


class TestBaseVertexCheck:
    def test_greedy_weights_pass(self):
        for fn in submodular_ensemble(4, sizes=(3, 3)):
            profile = d.Profile.constant(fn.domain, 0.5)
            _, w = d.greedy_extension(fn, profile)
            assert d.base_vertex_check(fn, w)

    def test_nonsubmodular_violates(self):
        dom = d.LatticeDomain([3, 3])
        f = d.OracleFunction(dom, lambda x: x[0] * x[1])
        w = d.chain_lower_bound(f, (1, 1), d.chain_containing(dom, (1, 1)))
        assert not d.base_vertex_check(f, w)

    def test_separable_equality_everywhere(self):
        s = random_separable(9, sizes=(3, 3))
        w = d.chain_lower_bound(s, (0, 0), d.chain_containing(s.domain, (0, 0)))
        verdict = d.base_vertex_check(s, w)
        assert verdict
        # equality at every point, not only at the top
        for x in s.domain.points():
            lhs = sum(w.prefixes[i][x[i]] for i in range(s.domain.n))
            assert lhs == pytest.approx(s.value(x) - s.value((0, 0)), abs=1e-9)
