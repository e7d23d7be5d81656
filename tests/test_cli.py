import csv
import json
import math

import pytest

import dsmin as d
from dsmin.cli import cli_run


def _trusted(slot):
    """The warning that a component above the cap is not checked for submodularity."""
    return pytest.warns(UserWarning, match=f"submodularity of '{slot}'; the declaration is trusted")


@pytest.fixture
def toy_file(tmp_path):
    dom = d.LatticeDomain([3, 3])
    spec = {
        "version": 1,
        "sizes": [3, 3],
        "f": {"kind": "table",
              "values": [math.sqrt(x[0] + x[1]) for x in dom.points()]},
        "g": {"kind": "separable", "constant": 0.0,
              "tables": [[1.0, 1.0], [1.0, 1.0]]},
    }
    path = tmp_path / "toy.json"
    d.write_problem(spec, path)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    dom = d.LatticeDomain([3, 3])
    spec = {
        "version": 1,
        "sizes": [3, 3],
        "f": {"kind": "table", "values": [float(x[0] * x[1]) for x in dom.points()]},
        "g": {"kind": "separable", "tables": [[0.0, 0.0], [0.0, 0.0]]},
    }
    path = tmp_path / "product.json"
    d.write_problem(spec, path)
    return str(path)


class TestSolve:
    def test_modmod_toy(self, toy_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        summary = tmp_path / "summary.csv"
        code = cli_run(["solve", toy_file, "--algorithm", "modmod",
                        "--trace", str(trace), "--summary", str(summary)])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified_local_min" in out
        assert "-2" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[-1]["accepted"]
        with open(summary) as fh:
            row = next(csv.DictReader(fh))
        assert row["status"] == "certified_local_min"
        assert float(row["value"]) == pytest.approx(-2.0)

    def test_all_algorithms(self, toy_file, capsys):
        for algo in ("subsup", "supsub", "modmod"):
            assert cli_run(["solve", toy_file, "--algorithm", algo]) == 0
            assert "-2" in capsys.readouterr().out

    def test_budget_flag(self, toy_file, capsys):
        code = cli_run(["solve", toy_file, "--algorithm", "modmod", "--budget", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{math.sqrt(2) - 2:.6f}"[:8] in out

    def test_epsilon_and_seed_flags(self, toy_file, capsys):
        code = cli_run(["solve", toy_file, "--algorithm", "subsup",
                        "--epsilon", "0.1", "--chain", "randomized",
                        "--seed", "3", "--sfm", "brute", "--max-iters", "50"])
        assert code == 0
        assert "predicted step bound" in capsys.readouterr().out

    def test_validation_failure_exit_2(self, product_file, capsys):
        code = cli_run(["solve", product_file])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.splitlines()[-1])
        assert record["error"]["type"] == "ProblemValidationError"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_exit_2_without_certificate(self, toy_file, tmp_path, capsys, bad):
        spec = json.loads(open(toy_file).read())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec).replace("1.0, 1.0]", f"{bad}, 1.0]", 1))
        assert cli_run(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"]["type"] == "ProblemFormatError"
        assert record["error"]["message"].startswith("g.tables[0][0]: expected a finite number")
        assert "certified_local_min" not in captured.out
        assert "status" not in captured.out

    @pytest.mark.parametrize("flags,field", [
        (["--epsilon", "nan"], "epsilon"), (["--lambda", "nan"], "dr_coeff"),
        (["--lambda", "-1"], "dr_coeff"), (["--budget", "-1"], "budget")])
    def test_bad_option_exit_2(self, toy_file, capsys, flags, field):
        assert cli_run(["solve", toy_file, "--algorithm", "modmod", *flags]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"]["type"] == "ValueError"
        assert record["error"]["message"].startswith(f"{field} must be")
        assert "status" not in captured.out

    def test_missing_file_exit_2(self, capsys):
        assert cli_run(["solve", "/nonexistent/problem.json"]) == 2

    def test_zero_sfm_iterations_exit_2(self, toy_file, capsys):
        code = cli_run(["solve", toy_file, "--algorithm", "subsup",
                        "--sfm", "subgrad", "--sfm-iters", "0"])
        assert code == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"]["type"] == "ValueError"
        assert "iterations must be >= 1" in record["error"]["message"]
        assert "status" not in captured.out


class TestCheck:
    def test_non_submodular_gets_exit_2(self, product_file, capsys):
        code = cli_run(["check", product_file])
        out = capsys.readouterr().out
        assert code == 2
        assert "submodular=no" in out
        assert "witness" in out

    def test_good_problem_passes(self, toy_file, capsys):
        code = cli_run(["check", toy_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("submodular=yes") == 2


class TestOtherCommands:
    def test_oracle_matches_solve(self, toy_file, capsys):
        assert cli_run(["oracle", toy_file]) == 0
        out = capsys.readouterr().out
        assert "(2, 2)" in out
        assert "-2" in out

    def test_decompose(self, toy_file, capsys):
        assert cli_run(["decompose", toy_file]) == 0
        out = capsys.readouterr().out
        assert "additive bound1 -4" in out
        assert "additive bound2 -4" in out

    def test_bounds_emits_tables(self, toy_file, capsys):
        assert cli_run(["bounds", toy_file, "--anchor", "1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anchor"] == [1, 0]
        assert set(payload["upper_bounds_f"]) == set(d.UB_VARIANTS)
        lower = payload["lower_bound_g"]
        assert lower["tables"] == [[1.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "-1"])
    def test_bounds_bad_lambda_exit_2(self, toy_file, capsys, coeff):
        assert cli_run(["bounds", toy_file, "--anchor", "1,0", f"--lambda={coeff}"]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"]["type"] == "ValueError"
        assert record["error"]["message"].startswith("quadratic coefficient must be")
        assert captured.out == ""

    def test_cap_exceeded_exit_3(self, toy_file, capsys):
        with _trusted("f"), _trusted("g"):
            assert cli_run(["--cap", "4", "oracle", toy_file]) == 3
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"]["type"] == "CapExceededError"

    def test_cap_env_override(self, toy_file, monkeypatch, capsys):
        monkeypatch.setenv("DSMIN_CAP", "4")
        with _trusted("f"), _trusted("g"):
            assert cli_run(["oracle", toy_file]) == 3
        capsys.readouterr()

    def test_bench(self, tmp_path, capsys):
        summary = tmp_path / "bench.csv"
        code = cli_run(["bench", "--kind", "coverage", "--count", "3",
                        "--seed", "1", "--algorithm", "modmod",
                        "--summary", str(summary)])
        out = capsys.readouterr().out
        assert code == 0
        assert "instances 3" in out
        with open(summary) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
