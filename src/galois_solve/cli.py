"""The galois-solve command line.

Three subcommands: ``solve`` decides a problem file and prints the
covering certificate, ``apply`` evaluates either transform on a given
function, ``lab`` runs one of the grid experiments.

Exit codes are a stable contract: 0 success, 2 validation failure,
3 no solution (the report is still emitted), 1 a lab experiment that
ran but failed its tolerance.
"""

from __future__ import annotations

import argparse
import sys

from . import extreal
from .engine import apply_adjoint, apply_forward
from .errors import ValidationError
from .lab import EXPERIMENTS, run_experiment, write_curves_csv
from .serialize import (
    function_to_json,
    load_problem,
    parse_function_arg,
    render_report,
    solution_to_report,
)
from .solver import Problem, Status, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NO_SOLUTION = 3


def _fmt(v: float) -> str:
    return str(extreal.ExtReal(v))


def _print_adjoint_table(problem: Problem, sol, out):
    """Adjoint evaluation table, one row per y, maximisers starred."""
    kernel, g = problem.kernel, problem.g
    width = max(len(l) for l in kernel.y_labels)
    print("adjoint evaluation (rows y, maximisers marked *):", file=out)
    for j, yl in enumerate(kernel.y_labels):
        cells = []
        members = sol.family.sets.get(yl, frozenset())
        for i, xl in enumerate(kernel.x_labels):
            val = kernel.adjoint_entry(j, i).eval_float(float(g.values[i]))
            star = "*" if xl in members else " "
            cells.append(f"{star}{_fmt(val)}")
        print(f"  {yl:>{width}}: " + "  ".join(f"{c:>16}" for c in cells), file=out)


def cmd_solve(args) -> int:
    try:
        problem = load_problem(args.file)
        if args.x_restrict:
            problem = Problem(
                problem.kernel, problem.g,
                x_restrict=tuple(args.x_restrict.split(",")),
                tolerance=problem.tolerance,
            )
        if args.tol is not None:
            problem = Problem(problem.kernel, problem.g,
                              x_restrict=problem.x_restrict, tolerance=args.tol)
        sol = solve(problem)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = solution_to_report(sol)
    if args.json:
        print(render_report(report))
    else:
        out = sys.stdout
        _print_adjoint_table(problem, sol, out)
        print(f"status: {sol.status.value}", file=out)
        print("minimal solution candidate:", file=out)
        for l, v in sol.f_min.as_dict().items():
            print(f"  {l} = {v}", file=out)
        if sol.cover.uncovered:
            print(f"uncovered points: {', '.join(sol.cover.uncovered)}", file=out)
        if sol.cover.essential:
            witness = ", ".join(
                f"{y} covers {sol.cover.privately_covered[y]} alone"
                for y in sol.cover.essential
            )
            print(f"essential indices: {witness}", file=out)
        if sol.witness_alt is not None:
            alt = ", ".join(f"{l}={v}" for l, v in sol.witness_alt.as_dict().items())
            print(f"second solution: {alt}", file=out)
        for c in sol.caveats:
            print(f"note: {c}", file=out)
    return EXIT_NO_SOLUTION if sol.status == Status.NO_SOLUTION else EXIT_OK


def cmd_apply(args) -> int:
    try:
        problem = load_problem(args.file)
        kernel = problem.kernel
        if args.direction == "B":
            if args.f is None:
                raise ValidationError("--direction B needs --f")
            fn = parse_function_arg(args.f, kernel.y_labels)
            result = apply_forward(kernel, fn)
        else:
            if args.g is not None:
                gn = parse_function_arg(args.g, kernel.x_labels)
            else:
                gn = problem.g
            result = apply_adjoint(kernel, gn)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.json:
        print(render_report(function_to_json(result), sort_keys=False))
    else:
        for l, v in result.as_dict().items():
            print(f"{l} = {v}")
    return EXIT_OK


def cmd_lab(args) -> int:
    try:
        result = run_experiment(
            args.name, step=args.step, a=args.a, curve=args.curve
        )
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.csv and result.curves:
        write_curves_csv(args.csv, result.curves)
    if args.json:
        print(render_report(result.to_dict()))
    else:
        print(f"experiment: {result.experiment}")
        print(f"max abs error: {result.max_abs_error:.6g} "
              f"(tolerance {result.tolerance:.6g})")
        for k, v in result.details.items():
            print(f"  {k}: {v}")
        print("PASS" if result.passed else "FAIL")
    return EXIT_OK if result.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-solve",
        description="decide and invert finite functional Galois connections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--x-restrict", default=None,
                         help="comma-separated x labels to equate on")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_apply = sub.add_parser("apply", help="apply either transform")
    p_apply.add_argument("file")
    p_apply.add_argument("--direction", choices=("B", "Bstar"), required=True)
    p_apply.add_argument("--f", default=None,
                         help="function on the y side (JSON or @file)")
    p_apply.add_argument("--g", default=None,
                         help="function on the x side (JSON or @file); "
                              "defaults to the file's target")
    p_apply.add_argument("--json", action="store_true")
    p_apply.set_defaults(func=cmd_apply)

    p_lab = sub.add_parser("lab", help="run a grid experiment")
    p_lab.add_argument("name", choices=EXPERIMENTS)
    p_lab.add_argument("--step", type=float, default=None)
    p_lab.add_argument("--a", type=float, default=None)
    p_lab.add_argument("--curve", default=None,
                       help="named input curve, e.g. sin_half or cos")
    p_lab.add_argument("--csv", default=None, help="dump sampled curves")
    p_lab.add_argument("--json", action="store_true")
    p_lab.set_defaults(func=cmd_lab)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the contract
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
