"""Span tracing of dsmin's layers from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in the
namespace of every dsmin module that holds it (for example
``dsmin.algorithms.dr_violation`` and ``dsmin.solvers.brute_force_minimize``),
so calls between modules are seen without editing the library.  Each call
records a span: name, start, end, the enclosing span, and the ``call_count``
deltas of the current problem's f and g.  Spans stay in memory until the run
writes them out.

While a problem file is parsed, its f and g do not exist yet, so the tracer
also wraps ``OracleFunction.__init__`` to remember every oracle built during
the parse; once parsing returns, the spans are charged with the calls of the
oracles that became the problem's f and g.  While solving, a wrapped
``OracleFunction.__call__`` collects the distinct points evaluated.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

from dsmin.lattice import OracleFunction

# Span names are "<module>.<function>", naming where the function is defined.
TRACED = (
    "problems.parse_problem",
    "lattice.check_submodular",
    "lattice.check_monotone",
    "decompose.second_difference_extremes",
    "decompose.ds_construct",
    "decompose.monotone_form",
    "bounds.dr_violation",
    "bounds.separable_upper_bound",
    "extension.greedy_extension",
    "extension.chain_lower_bound",
    "solvers.minimize_submodular",
    "solvers.brute_force_minimize",
    "solvers.project_profile",
    "solvers.minimize_separable",
    "solvers.minimize_separable_cardinality",
    "solvers.double_greedy_maximize",
    "algorithms.certify_local_minimum",
    "algorithms.predicted_iteration_bound",
    "algorithms.solve",
)
SPAN_FIELDS = ("count", "wall_s", "self_s", "calls_f", "calls_g")


@dataclass
class Span:
    name: str
    parent: int       # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    calls_f: int = 0
    calls_g: int = 0
    tag: str = ""     # label of the enclosing solve, "" while parsing
    raised: bool = False
    counts0: list = field(default_factory=list, repr=False)
    counts1: list = field(default_factory=list, repr=False)


class Tracer:
    def __init__(self):
        self.spans = []
        self.rounding_gaps = []
        self.distinct = 0
        self.solve_calls = 0
        self._stack = []
        self._patches = []
        self._watched = []        # oracles whose call counts the open spans snapshot
        self._registering = False
        self._first = 0           # first span of the current parse or solve
        self._tag = ""
        self._f = self._g = None
        self._seen_f = self._seen_g = None
        self._seen_owner = None

    # -- installing the wrappers -------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "dsmin" or name.startswith("dsmin.")]
        for span in TRACED:
            module_name, func_name = span.split(".")
            original = getattr(sys.modules[f"dsmin.{module_name}"], func_name)
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        tracer = self
        init, call = OracleFunction.__init__, OracleFunction.__call__

        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if tracer._registering:
                tracer._watched.append(self)

        def traced_call(self, x):
            value = call(self, x)
            if self is tracer._f:
                tracer._seen_f.add(tuple(map(int, x)))
            elif self is tracer._g:
                tracer._seen_g.add(tuple(map(int, x)))
            return value

        self._patches.append((OracleFunction, "__init__", init))
        self._patches.append((OracleFunction, "__call__", call))
        OracleFunction.__init__ = traced_init
        OracleFunction.__call__ = traced_call

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = self._observe_sfm if name == "solvers.minimize_submodular" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, 0.0, tag=self._tag,
                        counts0=[o.call_count for o in self._watched])
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                span.counts1 = [o.call_count for o in self._watched]
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_sfm(self, result):
        if result.duality_info is not None:
            self.rounding_gaps.append(float(result.duality_info["rounding_gap"]))

    # -- phases --------------------------------------------------------------

    def begin_parse(self):
        self._first = len(self.spans)
        self._watched = []
        self._registering = True
        self._tag = ""

    def end_parse(self, problem):
        self._registering = False
        self._charge(problem)
        self._watched = []

    def begin_solve(self, problem, label: str):
        if self._seen_owner is not problem:
            self._flush_distinct()
            self._seen_owner = problem
            self._seen_f, self._seen_g = set(), set()
        self._first = len(self.spans)
        self._f, self._g = problem.f, problem.g
        self._watched = [problem.f, problem.g]
        self._tag = label

    def end_solve(self, problem, calls: int):
        self._charge(problem)
        self.solve_calls += calls
        self._f = self._g = None
        self._watched = []

    def finish(self):
        self._flush_distinct()

    def _flush_distinct(self):
        if self._seen_owner is not None:
            self.distinct += len(self._seen_f) + len(self._seen_g)
        self._seen_owner = None

    def _charge(self, problem):
        """Turn the snapshots of the spans since the phase began into f/g deltas."""
        for span in self.spans[self._first:]:
            for k, oracle in enumerate(self._watched):
                # an oracle built after a snapshot had made no calls before it
                start = span.counts0[k] if k < len(span.counts0) else 0
                end = span.counts1[k] if k < len(span.counts1) else 0
                delta = end - start
                if oracle is problem.f:
                    span.calls_f += delta
                if oracle is problem.g:
                    span.calls_g += delta
            span.counts0 = span.counts1 = None

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """<span>.count/.wall_s/.self_s/.calls_f/.calls_g for every traced span.

        Calls that raised, such as a checker refusing a domain above the
        point cap, did no work and are left out; the span file keeps them.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {f"{name}.{fld}": 0 for name in TRACED for fld in SPAN_FIELDS}
        for k, span in enumerate(self.spans):
            if span.raised:
                continue
            wall = span.end - span.start
            out[f"{span.name}.count"] += 1
            out[f"{span.name}.wall_s"] += wall
            out[f"{span.name}.self_s"] += wall - child_time[k]
            out[f"{span.name}.calls_f"] += span.calls_f
            out[f"{span.name}.calls_g"] += span.calls_g
        return out

    def dr_share(self) -> float:
        """Share of the f calls of the solves labelled modmod and supsub spent in dr_violation."""
        dr = sum(s.calls_f for s in self.spans
                 if s.name == "bounds.dr_violation" and s.tag in ("modmod", "supsub"))
        total = sum(s.calls_f for s in self.spans
                    if s.name == "algorithms.solve" and s.tag in ("modmod", "supsub"))
        return dr / total if total else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "calls_f": span.calls_f,
                                     "calls_g": span.calls_g, "tag": span.tag,
                                     "raised": span.raised}) + "\n")
