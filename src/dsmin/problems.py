"""Problem files, generators, and trace/summary serialisation.

Problem file schema (JSON, version 1)
-------------------------------------
A problem document declares the domain and either an explicit (f, g) pair or
a raw objective v to be auto-split:

    {
      "version": 1,
      "sizes": [3, 3],                  # levels per coordinate, all >= 2
      "f": {<function spec>},           # together with "g", or
      "g": {<function spec>},
      "v": {<function spec>},           # together with "auto_split"
      "auto_split": {"n_bound": 2.0},   # n_bound optional on small domains
      "budget": 2                       # optional cardinality budget
    }

Function specs (the "kind" field selects one):

    {"kind": "table", "values": [...]}
        Dense value list, row-major with the *last coordinate fastest*;
        length must equal the product of the sizes.
    {"kind": "separable", "constant": 0.0, "tables": [[...], ...]}
        Per-coordinate increment tables of length k_i - 1.
    {"kind": "quadratic", "A": [[...]], "b": [...], "c": 0.0}
        x'Ax + b'x + c evaluated at integer points; A must be symmetric.
    {"kind": "coverage_tradeoff",
     "probs": [[p_i_region...]], "weights": [w_region...],
     "cost_tables": [[c_i(0..k_i-1)...]], "tradeoff": 1.0}
        The sensor-coverage trade-off pair.  In the "g" slot it evaluates
        the coverage side sum_j w_j * (1 - prod_i (1 - p_ij)^{x_i}); in the
        "f" slot it evaluates the cost side tradeoff * sum_i c_i(x_i).

Every number must be finite: NaN and +-Infinity raise ProblemFormatError
naming the field, and so does true/false where a number or an integer is
expected.

Auto-split problems build f and g from v with the strictly submodular
reference quadratic; the bound on v's cross second differences is brute
forced when not supplied (small domains only).

Traces are line-delimited JSON, one object per solver event, with keys
    t, x, v, f, g, surrogate, accepted, label, calls_f, calls_g, wall_time
in that order.  Summaries are single-row CSV with the column order
    algorithm, status, value, point, iterations, accepted_steps,
    calls_f, calls_g, wall_time, epsilon, predicted_bound,
    predicted_M, predicted_m
where ``point`` is the final point joined by semicolons.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from typing import Optional

import numpy as np

from .lattice import (
    CapExceededError,
    LatticeDomain,
    OracleFunction,
    SeparableFunction,
    TableFunction,
    _Sweep,
    _finite,
    _sweep_terms,
    check_submodular,
)
from .decompose import DsProblem, ds_construct, reference_quadratic, second_difference_extremes
from .algorithms import SolveReport

SCHEMA_VERSION = 1

FUNCTION_KINDS = ("table", "separable", "quadratic", "coverage_tradeoff")

TRACE_KEYS = ("t", "x", "v", "f", "g", "surrogate", "accepted", "label",
              "calls_f", "calls_g", "wall_time")
SUMMARY_COLUMNS = ("algorithm", "status", "value", "point", "iterations",
                   "accepted_steps", "calls_f", "calls_g", "wall_time",
                   "epsilon", "predicted_bound", "predicted_M", "predicted_m")


class ProblemFormatError(ValueError):
    """Schema violation; the message starts with the offending field path."""


class ProblemValidationError(ValueError):
    """A declared component fails the structural checks; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _fail(path, msg):
    raise ProblemFormatError(f"{path}: {msg}")


def _expect_list(obj, path, length=None):
    if not isinstance(obj, (list, tuple)):
        _fail(path, f"expected a list, got {type(obj).__name__}")
    if length is not None and len(obj) != length:
        _fail(path, f"expected {length} entries, got {len(obj)}")
    return obj


def _is_number(val, kind=numbers.Real) -> bool:
    """Whether val is a ``kind`` scalar, Python's or numpy's, and not a boolean."""
    return isinstance(val, kind) and not isinstance(val, (bool, np.bool_))


def _expect_number(val, path) -> float:
    """A finite number (``true``/``false``, NaN and +-Infinity are refused)."""
    if not _is_number(val):
        _fail(path, f"expected a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    if not math.isfinite(num):
        _fail(path, f"expected a finite number, got {val!r}")
    return num


def _expect_numbers(obj, path, length=None) -> np.ndarray:
    """Finite numbers as floats: one type pass and one finite check, and a walk entry by
    entry only to name a fault (a wrong type first, then a non-finite value)."""
    obj = _expect_list(obj, path, length)
    if set(map(type, obj)) <= {int, float}:
        try:
            values = np.array(obj, dtype=float)
            if _finite(values):
                return values
        except OverflowError:  # an integer beyond the float range
            pass
    for idx, val in enumerate(obj):
        if not _is_number(val):
            _fail(f"{path}[{idx}]", f"expected a number, got {val!r}")
    return np.array([_expect_number(val, f"{path}[{idx}]") for idx, val in enumerate(obj)])


def _expect_rows(obj, path, lengths) -> np.ndarray:
    """Rows of finite numbers, row i of ``lengths[i]``, laid end to end: checked as one
    list, and a fault named row by row."""
    rows = _expect_list(obj, path, len(lengths))
    if all(isinstance(row, (list, tuple)) and len(row) == k for row, k in zip(rows, lengths)):
        try:
            return _expect_numbers([val for row in rows for val in row], path)
        except ProblemFormatError:
            pass
    return np.concatenate([_expect_numbers(row, f"{path}[{i}]", k)
                           for i, (row, k) in enumerate(zip(rows, lengths))])


def build_function(spec: dict, domain: LatticeDomain, slot: str, path: str) -> OracleFunction:
    """Construct the oracle described by a function spec in slot 'f', 'g' or 'v'."""
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = spec.get("kind")
    if kind not in FUNCTION_KINDS:
        _fail(f"{path}.kind", f"expected one of {FUNCTION_KINDS}, got {kind!r}")
    n = domain.n

    if kind == "table":
        values = _expect_numbers(spec.get("values"), f"{path}.values", domain.num_points)
        return TableFunction(domain, values, name=f"{slot}:table")

    if kind == "separable":
        tables = _expect_rows(spec.get("tables"), f"{path}.tables", domain.k_max)
        constant = _expect_number(spec.get("constant", 0.0), f"{path}.constant")
        return SeparableFunction(domain, constant, np.split(tables, domain._increment_offsets[1:]),
                                 name=f"{slot}:separable")

    if kind == "quadratic":
        A = _expect_rows(spec.get("A"), f"{path}.A", [n] * n).reshape(n, n)
        if not np.allclose(A, A.T, atol=1e-12):
            _fail(f"{path}.A", "matrix must be symmetric")
        b = _expect_numbers(spec.get("b", [0.0] * n), f"{path}.b", n)
        c = _expect_number(spec.get("c", 0.0), f"{path}.c")

        def eval_quad(x, A=A, b=b, c=c):
            arr = np.asarray(x, dtype=float)
            return float(arr @ A @ arr + b @ arr + c)

        return OracleFunction(domain, eval_quad, name=f"{slot}:quadratic")

    # coverage_tradeoff (g: coverage side, f: cost side); probs rows as long as the first
    probs_rows = _expect_list(spec.get("probs"), f"{path}.probs", n)
    regions = len(probs_rows[0]) if isinstance(probs_rows[0], (list, tuple)) else None
    probs = _expect_rows(probs_rows, f"{path}.probs", [regions] * n).reshape(n, -1)
    if np.any(probs < 0) or np.any(probs > 1):
        _fail(f"{path}.probs", "probabilities must lie in [0, 1]")
    weights = _expect_numbers(spec.get("weights"), f"{path}.weights", regions)
    costs = _expect_rows(spec.get("cost_tables"), f"{path}.cost_tables", domain.sizes)
    tradeoff = _expect_number(spec.get("tradeoff", 1.0), f"{path}.tradeoff")

    if slot == "f":
        return SeparableFunction._of_levels(domain, costs * tradeoff)

    return _Coverage(domain, probs, weights, name=f"{slot}:coverage")


class _Coverage(OracleFunction):
    """The coverage side sum_j w_j * (1 - prod_i (1 - p_ij)^{x_i}).

    ``_powers[i * width + level, j]`` is (1 - p_ij)^level: the chance that
    ``level`` units of sensor i all miss region j (levels at and above k_i
    are padding).  The kernel looks the powers up instead of calling pow,
    whose last bit can depend on the array layout.  It gathers them
    coordinate-major, as an (n, m, regions) array, and folds the coordinates
    left to right with ``np.multiply.reduce`` over the first axis: each step
    multiplies whole (m, regions) slices, the same products in the same order
    as a fold along each row, and multiply has no pairwise path.  It adds each
    point's regions with a row-wise sum (not a BLAS product, whose rounding
    depends on the batch shape), so a value does not depend on the batch it
    is evaluated in.
    """

    def __init__(self, domain: LatticeDomain, probs: np.ndarray, weights: np.ndarray, name: str):
        width = max(domain.sizes)
        levels = np.arange(width, dtype=float)
        self._powers = ((1.0 - probs)[:, None, :] ** levels[None, :, None]).reshape(
            domain.n * width, -1)
        self._weights = weights
        self._offsets = np.arange(domain.n) * width
        self._sweep_factors = None
        super().__init__(domain, name=name)

    def _batch_fn(self, X: np.ndarray) -> np.ndarray:
        undetected = np.multiply.reduce(self._powers.take((X + self._offsets).T, axis=0), axis=0)
        return ((1.0 - undetected) * self._weights).sum(axis=1)

    def _sweep(self):
        if self._sweep_factors is None:
            # each sweep row's miss factors: (1 - p_i)^l, times the later
            # coordinates' top factors for a b-row
            self._sweep_factors = _sweep_terms(
                self.domain, self._powers[self.domain._level_slots], np.multiply, 1.0)
        return _CoverageSweep(self)


class _CoverageSweep(_Sweep):
    """Coverage rows from the running product of the chosen levels' miss factors.

    The kernel multiplies a point's factors in coordinate order, and an
    a-row's factors after coordinate i are 1.0, so missed * (1 - p_i)^l is
    its product bit for bit.  A b-row's product takes the later coordinates'
    top factors as one suffix product, which may round differently in the
    last bit.
    """

    def __init__(self, f: _Coverage):
        super().__init__(f)
        self.missed = np.ones(f._powers.shape[1])

    def choose(self, level: int):
        f = self.f
        self.missed = self.missed * f._powers[f._offsets[len(self.chosen)] + level]
        super().choose(level)

    def _values(self, rows: slice) -> list:
        f = self.f
        return np.add.reduce((1.0 - self.missed * f._sweep_factors[rows]) * f._weights,
                             axis=1).tolist()


def build_problem(spec: dict, validate: bool = True, cap=None):
    """Build (DsProblem, options) from a problem document.

    ``validate`` runs the submodularity checker on both declared components
    when the domain is within the cap; failures raise
    ProblemValidationError.  Above the cap a warning is emitted instead.
    An auto-split f is checked once, by ``ds_construct``, whose
    DsConstructionError names ``n_bound``.
    """
    if not isinstance(spec, dict):
        _fail("$", "expected a JSON object")
    version = spec.get("version")
    if version != SCHEMA_VERSION or isinstance(version, (bool, np.bool_)):
        _fail("version", f"expected {SCHEMA_VERSION}, got {version!r}")
    sizes = spec.get("sizes")
    _expect_list(sizes, "sizes")
    for i, k in enumerate(sizes):
        if not _is_number(k, numbers.Integral) or k < 2:
            _fail(f"sizes[{i}]", f"expected an integer >= 2, got {k!r}")
    domain = LatticeDomain(sizes)

    budget = spec.get("budget")
    if budget is not None:
        if not _is_number(budget, numbers.Integral) or budget < 0:
            _fail("budget", f"expected a nonnegative integer, got {budget!r}")
        budget = int(budget)
    options = {"budget": budget}

    has_pair = "f" in spec or "g" in spec
    has_v = "v" in spec or "auto_split" in spec
    if has_pair == has_v:
        _fail("$", "declare either both 'f' and 'g', or 'v' with 'auto_split'")

    if has_pair:
        if "f" not in spec or "g" not in spec:
            _fail("$", "'f' and 'g' must be declared together")
        f = build_function(spec["f"], domain, "f", "f")
        g = build_function(spec["g"], domain, "g", "g")
        problem = DsProblem(f, g)
    else:
        if "v" not in spec:
            _fail("v", "auto_split requires a 'v' function spec")
        auto = spec.get("auto_split")
        if not isinstance(auto, dict):
            _fail("auto_split", "expected an object")
        v = build_function(spec["v"], domain, "v", "v")
        n_bound = auto.get("n_bound")
        if n_bound is None:
            n_bound, _ = second_difference_extremes(v, cap=cap)
        else:
            n_bound = _expect_number(n_bound, "auto_split.n_bound")
        g_ref, m_ref = reference_quadratic(domain)
        problem = ds_construct(v, g_ref, m_ref, float(n_bound),
                               validate=validate, cap=cap)

    if validate:
        # ds_construct has already checked an auto-split f
        components = (("f", problem.f), ("g", problem.g)) if has_pair else (("g", problem.g),)
        for label, fn in components:
            try:
                verdict = check_submodular(fn, cap=cap)
            except CapExceededError:
                warnings.warn(
                    f"domain too large to verify submodularity of '{label}'; "
                    "the declaration is trusted")
                continue
            if not verdict:
                w = verdict.witness
                raise ProblemValidationError(
                    f"declared component '{label}' is not submodular: cross "
                    f"second difference {w.value:.6g} at {w.point}, "
                    f"coordinates ({w.i}, {w.j})", witness=w)
    return problem, options


def parse_problem(path, validate: bool = True, cap=None):
    """Load a problem file.  See the module docstring for the schema."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"$: not valid JSON ({exc})") from exc
    return build_problem(spec, validate=validate, cap=cap)


def write_problem(spec: dict, path):
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Ensemble generators
# ---------------------------------------------------------------------------

def _coverage_spec(rng: np.random.Generator, sizes, regions: int) -> dict:
    n = len(sizes)
    probs = rng.uniform(0.05, 0.35, size=(n, regions))
    weights = rng.uniform(0.5, 2.0, size=regions)
    powers = rng.uniform(0.55, 0.95, size=n)
    scales = rng.uniform(0.15, 0.6, size=n)
    cost_tables = [
        (scales[i] * np.arange(sizes[i]) ** powers[i]).tolist()
        for i in range(n)
    ]
    tradeoff = float(rng.uniform(0.6, 1.6))
    block = {
        "kind": "coverage_tradeoff",
        "probs": probs.tolist(),
        "weights": weights.tolist(),
        "cost_tables": cost_tables,
        "tradeoff": tradeoff,
    }
    return {"version": SCHEMA_VERSION, "sizes": list(sizes), "f": block, "g": dict(block)}


def _concave_linear_table(rng: np.random.Generator, domain: LatticeDomain,
                          terms: int, u_range) -> list:
    coeffs = rng.uniform(0.0, 1.0, size=(terms, domain.n))
    us = rng.uniform(u_range[0], u_range[1], size=terms)
    values = []
    for x in domain.points():
        arr = np.asarray(x, dtype=float)
        z = coeffs @ arr
        values.append(float(us @ np.sqrt(z)))
    return values


def generate_ensemble(kind: str, params: Optional[dict] = None, seed: int = 0):
    """Deterministic problem-spec ensembles.

    kind="coverage": sensor-coverage trade-off pairs (separable cost vs
    monotone DR coverage).
    kind="concave_of_linear_sums": f and g are sums of square roots of
    nonnegative linear forms (DR-submodular by composition), stored as
    tables; params may set "terms" and "u_range" (zero weights give
    constant functions).
    kind="random_table_autosplit": uniform random tables declared as raw v
    with auto_split.

    Every generated spec has f(0) = g(0) = 0 and passes the submodularity
    checker on capped domains.
    """
    params = dict(params or {})
    count = int(params.pop("count", 20))
    sizes = tuple(params.pop("sizes", (4, 4, 4)))
    rng = np.random.default_rng(seed)
    specs = []
    if kind == "coverage":
        regions = int(params.pop("regions", 4))
        for _ in range(count):
            specs.append(_coverage_spec(rng, sizes, regions))
    elif kind == "concave_of_linear_sums":
        terms = int(params.pop("terms", 3))
        u_range = tuple(params.pop("u_range", (0.4, 1.4)))
        domain = LatticeDomain(sizes)
        for _ in range(count):
            f_table = _concave_linear_table(rng, domain, terms, u_range)
            g_table = _concave_linear_table(rng, domain, terms, u_range)
            specs.append({
                "version": SCHEMA_VERSION,
                "sizes": list(sizes),
                "f": {"kind": "table", "values": f_table},
                "g": {"kind": "table", "values": g_table},
            })
    elif kind == "random_table_autosplit":
        lo, hi = params.pop("value_range", (-3.0, 3.0))
        domain = LatticeDomain(sizes)
        for _ in range(count):
            values = rng.uniform(lo, hi, size=domain.num_points)
            values[0] = 0.0
            specs.append({
                "version": SCHEMA_VERSION,
                "sizes": list(sizes),
                "v": {"kind": "table", "values": values.tolist()},
                "auto_split": {},
            })
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if params:
        raise ValueError(f"unused ensemble parameters: {sorted(params)}")
    return specs


# ---------------------------------------------------------------------------
# Trace and summary writers
# ---------------------------------------------------------------------------

def trace_records(report: SolveReport):
    """All solver events as JSON-ready dicts, in occurrence order."""
    out = []
    for rec in report.events:
        out.append({
            "t": rec.t,
            "x": list(rec.point),
            "v": rec.v,
            "f": rec.f_val,
            "g": rec.g_val,
            "surrogate": rec.surrogate,
            "accepted": rec.accepted,
            "label": rec.label,
            "calls_f": rec.calls_f,
            "calls_g": rec.calls_g,
            "wall_time": rec.wall_time,
        })
    return out


def write_trace(report: SolveReport, path):
    with open(path, "w") as fh:
        for rec in trace_records(report):
            fh.write(json.dumps(rec) + "\n")


def summary_row(report: SolveReport, epsilon: float) -> dict:
    pred = report.predicted
    return {
        "algorithm": report.algorithm,
        "status": report.status,
        "value": report.final_value,
        "point": ";".join(str(c) for c in report.final_point),
        "iterations": report.iterates[-1].t,
        "accepted_steps": report.accepted_steps,
        "calls_f": report.events[-1].calls_f,
        "calls_g": report.events[-1].calls_g,
        "wall_time": report.events[-1].wall_time,
        "epsilon": epsilon,
        "predicted_bound": "" if pred is None else pred.bound,
        "predicted_M": "" if pred is None else pred.big_m,
        "predicted_m": "" if pred is None else pred.small_m,
    }


def write_summary(rows, path):
    rows = [rows] if isinstance(rows, dict) else list(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
