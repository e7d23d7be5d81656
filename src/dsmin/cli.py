"""Command-line interface.

Subcommands: solve, check, decompose, bounds, oracle, bench.  Exit codes:
0 on success, 2 on validation failures (schema, non-submodular components,
bad arguments), 3 when a brute-force cap is exceeded.  Besides the
human-readable output, every error is also emitted to stderr as a one-line
JSON record {"error": {"type": ..., "message": ...}}.

The brute-force cap can be set per invocation with --cap or globally with
the DSMIN_CAP environment variable (--cap wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .lattice import (
    CapExceededError,
    check_dr,
    check_monotone,
    check_submodular,
)
from .bounds import dr_split, dr_violation, separable_upper_bound
from .extension import chain_containing, chain_lower_bound
from .decompose import (
    DsConstructionError,
    additive_lower_bounds,
    monotone_submodular_split,
)
from .algorithms import SolveOptions, solve
from .solvers import SubgradientOptions, brute_force_minimize
from .problems import (
    ProblemFormatError,
    ProblemValidationError,
    build_problem,
    generate_ensemble,
    parse_problem,
    summary_row,
    write_summary,
    write_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3


def _cap_from(args):
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("DSMIN_CAP")
    return int(env) if env else None


def _point_str(x):
    return "(" + ", ".join(str(c) for c in x) + ")"


def _parse_anchor(text, domain):
    try:
        point = tuple(int(c) for c in text.replace(",", " ").split())
    except ValueError:
        raise ProblemFormatError(f"anchor: expected integers, got {text!r}")
    return domain.require(point)


def _solve_options(args, budget):
    sfm_options = None
    if args.sfm_iters is not None:
        sfm_options = SubgradientOptions(iterations=args.sfm_iters)
    return SolveOptions(
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        chain_mode=args.chain,
        seed=args.seed,
        ub_policy=args.ub,
        sfm_method={"brute": "brute_force", "subgrad": "subgradient"}[args.sfm],
        sfm_options=sfm_options,
        dr_coeff=getattr(args, "lambda"),
        budget=budget,
        cap=_cap_from(args),
    )


def _add_solve_flags(parser):
    parser.add_argument("--algorithm", choices=["subsup", "supsub", "modmod"],
                        default="modmod")
    parser.add_argument("--epsilon", type=float, default=0.0)
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--chain", choices=["canonical", "randomized"],
                        default="canonical")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", type=float, default=None,
                        help="quadratic split coefficient override")
    parser.add_argument("--ub", choices=["try_both", "grow1", "grow2"],
                        default="try_both")
    parser.add_argument("--sfm", choices=["brute", "subgrad"], default="brute",
                        help="inner SFM of subsup: brute force, or the certified "
                             "minimum-norm-point solver (subgrad)")
    parser.add_argument("--sfm-iters", type=int, default=None,
                        help="iteration budget of the subgrad solver, >= 1 (default 500)")
    parser.add_argument("--budget", type=int, default=None,
                        help="cardinality budget (modmod only)")


def cmd_solve(args):
    problem, options = parse_problem(args.problem, cap=_cap_from(args))
    budget = args.budget if args.budget is not None else options.get("budget")
    opts = _solve_options(args, budget)
    report = solve(problem, opts)
    if args.trace:
        write_trace(report, args.trace)
    if args.summary:
        write_summary(summary_row(report, args.epsilon), args.summary)
    print(f"algorithm      {report.algorithm}")
    print(f"status         {report.status}")
    print(f"minimiser      {_point_str(report.final_point)}")
    print(f"value          {report.final_value:.12g}")
    print(f"iterations     {report.iterates[-1].t}")
    print(f"accepted steps {report.accepted_steps}")
    if report.predicted is not None:
        print(f"predicted step bound {report.predicted.bound:.6g} "
              f"(M={report.predicted.big_m:.6g}, m={report.predicted.small_m:.6g})")
    return EXIT_OK


def cmd_check(args):
    problem, _ = parse_problem(args.problem, validate=False, cap=_cap_from(args))
    cap = _cap_from(args)
    failed = False
    for label, fn in (("f", problem.f), ("g", problem.g)):
        sub = check_submodular(fn, cap=cap)
        dr = check_dr(fn, cap=cap)
        mono = check_monotone(fn, cap=cap)
        print(f"{label}: submodular={'yes' if sub else 'no'} "
              f"dr={'yes' if dr else 'no'} monotone={'yes' if mono else 'no'}")
        if not sub:
            w = sub.witness
            print(f"   witness: point {_point_str(w.point)}, coordinates "
                  f"({w.i}, {w.j}), value {w.value:.6g}")
            failed = True
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_decompose(args):
    problem, _ = parse_problem(args.problem, cap=_cap_from(args))
    cap = _cap_from(args)
    for label, fn in (("f", problem.f), ("g", problem.g)):
        coeff = dr_violation(fn, cap=cap)
        split = dr_split(fn, coeff)
        residual_dr = check_dr(split.residual, cap=cap)
        modular, monotone = monotone_submodular_split(fn, cap=cap)
        mono_ok = check_monotone(monotone, cap=cap)
        print(f"{label}: dr_violation={coeff:.6g} residual_dr="
              f"{'yes' if residual_dr else 'no'} "
              f"monotone_split={'yes' if mono_ok else 'no'}")
    bounds = additive_lower_bounds(problem, cap=cap)
    b1 = "unavailable" if bounds.bound1 is None else f"{bounds.bound1:.6g}"
    print(f"additive bound1 {b1}")
    print(f"additive bound2 {bounds.bound2:.6g}")
    return EXIT_OK


def cmd_bounds(args):
    problem, _ = parse_problem(args.problem, cap=_cap_from(args))
    anchor = _parse_anchor(args.anchor, problem.domain)
    chain = chain_containing(problem.domain, anchor)
    lower = chain_lower_bound(problem.g, anchor, chain)
    coeff = getattr(args, "lambda")
    if coeff is None:
        coeff = dr_violation(problem.f, cap=_cap_from(args))
    out = {
        "anchor": list(anchor),
        "lower_bound_g": {
            "constant": lower.constant,
            "tables": [t.tolist() for t in lower.tables],
        },
        "upper_bounds_f": {},
    }
    for variant in ("grow1", "grow2", "tight1", "tight2"):
        ub = separable_upper_bound(problem.f, coeff, anchor, variant)
        out["upper_bounds_f"][variant] = {
            "constant": ub.constant,
            "tables": [t.tolist() for t in ub.tables],
        }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_oracle(args):
    problem, _ = parse_problem(args.problem, cap=_cap_from(args))
    point, value = brute_force_minimize(problem.v_oracle(), cap=_cap_from(args))
    print(f"minimiser {_point_str(point)}")
    print(f"value     {value:.12g}")
    return EXIT_OK


BENCH_ORACLE_CAP = 10**4


def cmd_bench(args):
    specs = generate_ensemble(args.kind, {"count": args.count}, seed=args.seed)
    cap = _cap_from(args)
    rows = []
    gaps = []
    for idx, spec in enumerate(specs):
        problem, options = build_problem(spec, cap=cap)
        problem.domain.check_cap(BENCH_ORACLE_CAP, what="bench oracle comparison")
        opts = _solve_options(args, options.get("budget"))
        report = solve(problem, opts)
        _, best = brute_force_minimize(problem.v_oracle(), cap=BENCH_ORACLE_CAP)
        gap = report.final_value - best
        gaps.append(gap)
        rows.append(summary_row(report, args.epsilon))
        print(f"instance {idx:3d}: value {report.final_value: .6f} "
              f"oracle {best: .6f} gap {gap: .3e} [{report.status}]")
    if args.summary:
        write_summary(rows, args.summary)
    gaps = np.asarray(gaps)
    exact = int(np.sum(gaps <= 1e-9))
    print(f"instances {len(gaps)}, exact {exact}, "
          f"mean gap {gaps.mean():.3e}, max gap {gaps.max():.3e}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dsmin",
        description="Minimise differences of lattice submodular functions.")
    parser.add_argument("--cap", type=int, default=None,
                        help="brute-force point cap (env DSMIN_CAP)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an MM algorithm on a problem file")
    p_solve.add_argument("problem")
    _add_solve_flags(p_solve)
    p_solve.add_argument("--trace", default=None, help="write a JSONL event trace")
    p_solve.add_argument("--summary", default=None, help="write a one-row CSV summary")
    p_solve.set_defaults(fn=cmd_solve)

    p_check = sub.add_parser("check", help="structural verdicts for f and g")
    p_check.add_argument("problem")
    p_check.set_defaults(fn=cmd_check)

    p_dec = sub.add_parser("decompose", help="quadratic/monotone splits and additive bounds")
    p_dec.add_argument("problem")
    p_dec.set_defaults(fn=cmd_decompose)

    p_bounds = sub.add_parser("bounds", help="emit bound tables at an anchor")
    p_bounds.add_argument("problem")
    p_bounds.add_argument("--anchor", required=True, help="e.g. '1,0'")
    p_bounds.add_argument("--lambda", type=float, default=None)
    p_bounds.set_defaults(fn=cmd_bounds)

    p_oracle = sub.add_parser("oracle", help="brute-force minimum of v")
    p_oracle.add_argument("problem")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_bench = sub.add_parser("bench", help="ensemble run with oracle gap statistics")
    p_bench.add_argument("--kind", default="coverage",
                         choices=["coverage", "concave_of_linear_sums",
                                  "random_table_autosplit"])
    p_bench.add_argument("--count", type=int, default=20)
    _add_solve_flags(p_bench)
    p_bench.add_argument("--summary", default=None)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def _emit_error(exc):
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


def cli_run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        _emit_error(exc)
        return EXIT_CAP
    except (ProblemFormatError, ProblemValidationError, DsConstructionError,
            ValueError, OSError) as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
