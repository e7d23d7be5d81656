import copy
import json
import math
import re

import numpy as np
import pytest

import dsmin as d


def sqrt_table_spec():
    """f = sqrt(x1 + x2) as a table, g = x1 + x2 separable, on {0,1,2}^2."""
    dom = d.LatticeDomain([3, 3])
    values = [math.sqrt(x[0] + x[1]) for x in dom.points()]
    return {
        "version": 1,
        "sizes": [3, 3],
        "f": {"kind": "table", "values": values},
        "g": {"kind": "separable", "constant": 0.0, "tables": [[1.0, 1.0], [1.0, 1.0]]},
    }


class TestBuildProblem:
    def test_quadratic_plus_separable(self):
        spec = {
            "version": 1,
            "sizes": [3, 3],
            "f": {"kind": "separable", "constant": 0.0,
                  "tables": [[1.0, 1.0], [0.5, 0.5]]},
            "g": {"kind": "quadratic", "A": [[0, -1], [-1, 0]], "b": [0.0, 0.0], "c": 0.0},
        }
        problem, options = d.build_problem(spec)
        assert problem.g((1, 1)) == pytest.approx(-2.0)
        assert options["budget"] is None

    def test_toy_file(self):
        problem, _ = d.build_problem(sqrt_table_spec())
        assert problem.v((2, 2)) == pytest.approx(-2.0)

    def test_coverage_tradeoff_slots(self):
        block = {
            "kind": "coverage_tradeoff",
            "probs": [[0.5, 0.2], [0.1, 0.4]],
            "weights": [1.0, 2.0],
            "cost_tables": [[0.0, 1.0, 1.5], [0.0, 0.5, 0.8]],
            "tradeoff": 2.0,
        }
        spec = {"version": 1, "sizes": [3, 3], "f": dict(block), "g": dict(block)}
        problem, _ = d.build_problem(spec)
        assert problem.f((1, 1)) == pytest.approx(2.0 * (1.0 + 0.5))
        expected = 1.0 * (1 - 0.5 * 0.9) + 2.0 * (1 - 0.8 * 0.6)
        assert problem.g((1, 1)) == pytest.approx(expected)
        assert problem.g((0, 0)) == 0.0

    def test_auto_split(self):
        dom = d.LatticeDomain([3, 3])
        values = [float(x[0] * x[1]) for x in dom.points()]
        spec = {"version": 1, "sizes": [3, 3],
                "v": {"kind": "table", "values": values}, "auto_split": {}}
        problem, _ = d.build_problem(spec)
        assert problem.provenance == "constructed"
        assert d.check_submodular(problem.f)
        assert d.check_submodular(problem.g)
        for x in dom.points():
            assert problem.v(x) == pytest.approx(x[0] * x[1], abs=1e-12)

    def test_auto_split_checks_f_once(self):
        dom = d.LatticeDomain([3, 3])
        values = [float(x[0] * x[1]) for x in dom.points()]
        spec = {"version": 1, "sizes": [3, 3],
                "v": {"kind": "table", "values": values}, "auto_split": {}}
        problem, _ = d.build_problem(spec)
        assert problem.f.call_count == dom.num_points
        spec["auto_split"] = {"n_bound": 0.1}
        with pytest.raises(d.DsConstructionError, match="n_bound=0.1 too small"):
            d.build_problem(spec)
        with pytest.warns(UserWarning, match="submodularity of 'g'; the declaration is trusted"), \
                pytest.warns(UserWarning, match="constructed f; n_bound=0.1 is trusted"):
            d.build_problem(spec, cap=4)

    def test_malformed_sizes(self):
        with pytest.raises(d.ProblemFormatError, match=r"sizes\[1\]"):
            d.build_problem({"version": 1, "sizes": [3, 1],
                             "f": {"kind": "table", "values": []},
                             "g": {"kind": "table", "values": []}})

    def test_wrong_table_length(self):
        with pytest.raises(d.ProblemFormatError, match=r"f\.values"):
            d.build_problem({"version": 1, "sizes": [3, 3],
                             "f": {"kind": "table", "values": [0.0] * 8},
                             "g": {"kind": "separable",
                                   "tables": [[0.0, 0.0], [0.0, 0.0]]}})

    def test_probability_range(self):
        block = {"kind": "coverage_tradeoff", "probs": [[1.5]], "weights": [1.0],
                 "cost_tables": [[0.0, 1.0, 2.0]], "tradeoff": 1.0}
        with pytest.raises(d.ProblemFormatError, match="probs"):
            d.build_problem({"version": 1, "sizes": [3], "f": dict(block),
                             "g": dict(block)})

    def test_asymmetric_quadratic_rejected(self):
        spec = {"version": 1, "sizes": [3, 3],
                "f": {"kind": "quadratic", "A": [[0, 1], [-1, 0]]},
                "g": {"kind": "quadratic", "A": [[0, 0], [0, 0]]}}
        with pytest.raises(d.ProblemFormatError, match="symmetric"):
            d.build_problem(spec)

    def test_missing_pair(self):
        with pytest.raises(d.ProblemFormatError):
            d.build_problem({"version": 1, "sizes": [3, 3],
                             "f": {"kind": "table", "values": [0.0] * 9}})

    def test_version_required(self):
        with pytest.raises(d.ProblemFormatError, match="version"):
            d.build_problem({"sizes": [3, 3]})

    def test_non_submodular_component_rejected(self):
        dom = d.LatticeDomain([3, 3])
        values = [float(x[0] * x[1]) for x in dom.points()]
        spec = {"version": 1, "sizes": [3, 3],
                "f": {"kind": "table", "values": values},
                "g": {"kind": "separable", "tables": [[0.0, 0.0], [0.0, 0.0]]}}
        with pytest.raises(d.ProblemValidationError) as err:
            d.build_problem(spec)
        assert err.value.witness is not None
        problem, _ = d.build_problem(spec, validate=False)
        assert problem.f((2, 2)) == 4.0


def _coverage_spec():
    block = {"kind": "coverage_tradeoff", "probs": [[0.5, 0.2], [0.1, 0.4]],
             "weights": [1.0, 2.0], "cost_tables": [[0.0, 1.0, 1.5], [0.0, 0.5, 0.8]],
             "tradeoff": 2.0}
    return {"version": 1, "sizes": [3, 3], "f": copy.deepcopy(block), "g": block}


def _quadratic_spec():
    return {"version": 1, "sizes": [3, 3],
            "f": {"kind": "quadratic", "A": [[0.0, -1.0], [-1.0, 0.0]], "b": [0.0, 0.0],
                  "c": 0.0},
            "g": {"kind": "separable", "constant": 0.0, "tables": [[1.0, 1.0], [1.0, 1.0]]}}


def _autosplit_spec():
    return {"version": 1, "sizes": [3, 3], "v": {"kind": "table", "values": [0.0] * 9},
            "auto_split": {"n_bound": 1.0}}


def _set(spec, path, value):
    """Replace the entry at a JSON path such as ["f", "values", 3]."""
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


# (spec builder, path to the number replaced, field path named by the error)
NUMERIC_FIELDS = [
    (sqrt_table_spec, ["f", "values", 3], r"f\.values\[3\]"),
    (sqrt_table_spec, ["g", "tables", 1, 0], r"g\.tables\[1\]\[0\]"),
    (sqrt_table_spec, ["g", "constant"], r"g\.constant"),
    (_quadratic_spec, ["f", "A", 0, 1], r"f\.A\[0\]\[1\]"),
    (_quadratic_spec, ["f", "b", 1], r"f\.b\[1\]"),
    (_quadratic_spec, ["f", "c"], r"f\.c"),
    (_coverage_spec, ["g", "probs", 1, 0], r"g\.probs\[1\]\[0\]"),
    (_coverage_spec, ["g", "weights", 0], r"g\.weights\[0\]"),
    (_coverage_spec, ["f", "cost_tables", 0, 2], r"f\.cost_tables\[0\]\[2\]"),
    (_coverage_spec, ["f", "tradeoff"], r"f\.tradeoff"),
    (_autosplit_spec, ["auto_split", "n_bound"], r"auto_split\.n_bound"),
]


class TestHostileNumbers:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("build, path, field", NUMERIC_FIELDS)
    def test_non_finite_rejected_with_field_path(self, build, path, field, bad):
        with pytest.raises(d.ProblemFormatError, match=field + ": expected a finite number"):
            d.build_problem(_set(build(), path, bad))

    @pytest.mark.parametrize("flag", [True, np.True_])
    @pytest.mark.parametrize("build, path, field", NUMERIC_FIELDS)
    def test_bool_rejected_as_number(self, build, path, field, flag):
        with pytest.raises(d.ProblemFormatError, match=field + ": expected a number"):
            d.build_problem(_set(build(), path, flag))

    @pytest.mark.parametrize("build, path, field", NUMERIC_FIELDS)
    def test_numpy_numbers_accepted_as_their_value(self, build, path, field):
        """A numpy float, or a numpy integer where the number is whole, builds
        the problem the Python number builds."""
        value = _get(build(), path)
        kinds = [np.float64] + ([np.int64] if float(value).is_integer() else [])
        want, _ = d.build_problem(build(), validate=False)
        points = np.array(list(want.domain.points()))
        for kind in kinds:
            got, _ = d.build_problem(_set(build(), path, kind(value)), validate=False)
            for side in ("f", "g"):
                assert (getattr(got, side).batch(points).tobytes()
                        == getattr(want, side).batch(points).tobytes()), (kind, side)

    def test_finite_values_whose_sum_overflows_accepted(self):
        spec = sqrt_table_spec()
        spec["f"]["values"][:2] = [1e308, 1e308]
        problem, _ = d.build_problem(spec, validate=False)
        assert problem.f((0, 1)) == 1e308

    def test_non_finite_from_json_text(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(sqrt_table_spec()).replace("[[1.0", "[[NaN", 1))
        with pytest.raises(d.ProblemFormatError, match=r"g\.tables\[0\]\[0\]"):
            d.parse_problem(path)

    @pytest.mark.parametrize("flag", [True, np.True_])
    @pytest.mark.parametrize("field", ["budget", "version"])
    def test_bool_rejected_as_integer(self, field, flag):
        spec = sqrt_table_spec()
        spec[field] = flag
        with pytest.raises(d.ProblemFormatError, match=field):
            d.build_problem(spec)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_rejected_as_size(self, flag):
        spec = sqrt_table_spec()
        spec["sizes"][1] = flag
        with pytest.raises(d.ProblemFormatError,
                           match=re.escape(f"sizes[1]: expected an integer >= 2, got {flag!r}")):
            d.build_problem(spec)

    def test_numpy_integer_sizes_and_budget_accepted(self):
        spec = sqrt_table_spec()
        spec["sizes"] = list(np.array(spec["sizes"]))
        spec["budget"] = np.int64(1)
        problem, options = d.build_problem(spec)
        assert problem.domain.sizes == (3, 3)
        assert options["budget"] == 1 and type(options["budget"]) is int
        spec["budget"] = np.float64(1.0)
        with pytest.raises(d.ProblemFormatError, match="budget: expected a nonnegative integer"):
            d.build_problem(spec)

    def test_integer_budget_still_accepted(self):
        spec = sqrt_table_spec()
        spec["budget"] = 1
        _, options = d.build_problem(spec)
        assert options["budget"] == 1


# (spec builder, path to one list of numbers, its field path); rows are checked
# together with the other rows of their field, a fault is named in its own row
NUMBER_LISTS = [
    (sqrt_table_spec, ["f", "values"], "f.values"),
    (sqrt_table_spec, ["g", "tables", 1], "g.tables[1]"),
    (_coverage_spec, ["g", "probs", 1], "g.probs[1]"),
    (_coverage_spec, ["f", "cost_tables", 0], "f.cost_tables[0]"),
    (_coverage_spec, ["g", "weights"], "g.weights"),
    (_quadratic_spec, ["f", "A", 1], "f.A[1]"),
    (_quadratic_spec, ["f", "b"], "f.b"),
]
LIST_IDS = [field for _, _, field in NUMBER_LISTS]


def _message(spec):
    with pytest.raises(d.ProblemFormatError) as err:
        d.build_problem(spec)
    return str(err.value)


class TestEntryByEntry:
    """A document is checked a list or a row set at a time; a fault is named entry by entry."""

    @pytest.mark.parametrize("bad", [True, False, "x", None, [1.0]], ids=repr)
    @pytest.mark.parametrize("build, path, field", NUMBER_LISTS, ids=LIST_IDS)
    def test_each_entry_of_a_wrong_type(self, build, path, field, bad):
        for idx in range(len(_get(build(), path))):
            spec = build()
            _get(spec, path)[idx] = bad
            assert _message(spec) == f"{field}[{idx}]: expected a number, got {bad!r}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=repr)
    @pytest.mark.parametrize("build, path, field", NUMBER_LISTS, ids=LIST_IDS)
    def test_each_entry_not_finite(self, build, path, field, bad):
        for idx in range(len(_get(build(), path))):
            spec = build()
            _get(spec, path)[idx] = bad
            assert _message(spec) == f"{field}[{idx}]: expected a finite number, got {bad!r}"

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("build, path, field", NUMBER_LISTS, ids=LIST_IDS)
    def test_wrong_length(self, build, path, field, delta):
        spec = build()
        entries = _get(spec, path)
        k = len(entries)
        if delta < 0:
            entries.pop()
        else:
            entries.append(0.5)
        assert _message(spec) == f"{field}: expected {k} entries, got {k + delta}"

    def test_a_wrong_type_is_named_before_a_non_finite_entry(self):
        spec = sqrt_table_spec()
        spec["f"]["values"][1] = math.nan
        spec["f"]["values"][5] = "x"
        assert _message(spec) == "f.values[5]: expected a number, got 'x'"

    def test_an_earlier_row_is_named_first(self):
        spec = _quadratic_spec()
        spec["f"]["A"][1][0] = "x"
        spec["f"]["A"][0][1] = math.inf
        assert _message(spec) == "f.A[0][1]: expected a finite number, got inf"

    def test_ragged_probs_rows_name_the_row(self):
        spec = _coverage_spec()
        spec["g"]["probs"] = [[0.5, 0.2], [0.1]]
        assert _message(spec) == "g.probs[1]: expected 2 entries, got 1"

    def test_numpy_floats_and_big_integers_accepted(self):
        spec = sqrt_table_spec()
        spec["f"]["values"][1] = np.float64(1.0)
        spec["g"]["tables"][0] = [2**63, 10**30]
        problem, _ = d.build_problem(spec, validate=False)
        assert problem.f((0, 1)) == 1.0
        assert problem.g((2, 0)) == float(2**63) + float(10**30)


def _get(spec, path):
    for key in path:
        spec = spec[key]
    return spec


class TestRoundTrip:
    def test_write_then_parse_identical_values(self, tmp_path):
        for kind in ("coverage", "concave_of_linear_sums", "random_table_autosplit"):
            spec = d.generate_ensemble(kind, {"count": 1, "sizes": (3, 3)}, seed=3)[0]
            first, _ = d.build_problem(spec, validate=False)
            path = tmp_path / f"{kind}.json"
            d.write_problem(spec, path)
            second, _ = d.parse_problem(path, validate=False)
            for x in first.domain.points():
                assert first.f(x) == second.f(x)
                assert first.g(x) == second.g(x)

    def test_parse_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(d.ProblemFormatError):
            d.parse_problem(path)


class TestGenerators:
    def test_deterministic(self):
        a = d.generate_ensemble("coverage", {"count": 3}, seed=7)
        b = d.generate_ensemble("coverage", {"count": 3}, seed=7)
        assert a == b

    def test_coverage_components_submodular(self):
        for spec in d.generate_ensemble("coverage", {"count": 20, "sizes": (3, 3, 3),
                                                     "regions": 4}, seed=7):
            problem, _ = d.build_problem(spec)  # validated on build
            assert problem.f(problem.domain.zero) == 0.0
            assert problem.g(problem.domain.zero) == 0.0
            assert d.check_dr(problem.g)

    def test_concave_linear_zero_weights_constant(self):
        specs = d.generate_ensemble("concave_of_linear_sums",
                                    {"count": 2, "sizes": (3, 3), "u_range": (0.0, 0.0)},
                                    seed=1)
        for spec in specs:
            problem, _ = d.build_problem(spec, validate=False)
            vals = {problem.f(x) for x in problem.domain.points()}
            assert vals == {0.0}

    def test_autosplit_reconstructs(self):
        for spec in d.generate_ensemble("random_table_autosplit",
                                        {"count": 5, "sizes": (4, 4)}, seed=2):
            problem, _ = d.build_problem(spec)
            table = spec["v"]["values"]
            for x in problem.domain.points():
                assert problem.v(x) == pytest.approx(
                    table[problem.domain.flat_index(x)], abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            d.generate_ensemble("nope", {}, seed=0)

    def test_unused_params_rejected(self):
        with pytest.raises(ValueError, match="unused"):
            d.generate_ensemble("coverage", {"count": 1, "typo": 3}, seed=0)


class TestTraceAndSummary:
    def _report(self):
        problem, _ = d.build_problem(sqrt_table_spec())
        return d.solve(problem, d.SolveOptions(algorithm="modmod"))

    def test_trace_records_structure(self, tmp_path):
        report = self._report()
        path = tmp_path / "trace.jsonl"
        d.write_trace(report, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines
        for line in lines:
            assert list(line.keys()) == list(d.problems.TRACE_KEYS)
        accepted = [rec for rec in lines if rec["accepted"]]
        for older, newer in zip(accepted, accepted[1:]):
            assert newer["v"] <= older["v"] + 1e-12
        assert tuple(accepted[-1]["x"]) == report.final_point

    def test_summary_row(self, tmp_path):
        report = self._report()
        row = d.summary_row(report, 0.0)
        assert row["status"] == "certified_local_min"
        assert row["point"] == "2;2"
        path = tmp_path / "summary.csv"
        d.write_summary(row, path)
        header, data = path.read_text().splitlines()
        assert header.split(",") == list(d.problems.SUMMARY_COLUMNS)
        assert "certified_local_min" in data
