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
import functools
import sys
from dataclasses import replace

from .engine import apply_adjoint, apply_forward, slice_table
from .errors import ValidationError
from .extreal import fmt
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


def _print_adjoint_table(problem: Problem, sol):
    """Adjoint evaluation table, one row per y, maximisers starred."""
    kernel = problem.kernel
    width = max(len(l) for l in kernel.y_labels)
    table = slice_table(kernel.dual, problem.g.values)
    print("adjoint evaluation (rows y, maximisers marked *):")
    for yl, row in zip(kernel.y_labels, table):
        members = sol.family.sets.get(yl, frozenset())
        cells = ("*" + fmt(v) if xl in members else " " + fmt(v)
                 for xl, v in zip(kernel.x_labels, row.tolist()))
        print(f"  {yl:>{width}}: " + "  ".join(f"{c:>16}" for c in cells))


def _assignments(f, sep: str = " = "):
    return [f"{l}{sep}{fmt(v)}" for l, v in zip(f.labels, f.values.tolist())]


def cmd_solve(args) -> int:
    problem = load_problem(args.file)
    if args.x_restrict is not None:  # '' is the empty X'
        labels = tuple(args.x_restrict.split(",")) if args.x_restrict else ()
        problem = replace(problem, x_restrict=labels)
    if args.tol is not None:
        problem = replace(problem, tolerance=args.tol)
    sol = solve(problem)

    if args.json:
        print(render_report(solution_to_report(sol)))
    else:
        _print_adjoint_table(problem, sol)
        print(f"status: {sol.status.value}")
        print("minimal solution candidate:")
        for line in _assignments(sol.f_min):
            print("  " + line)
        if sol.cover.uncovered:
            print(f"uncovered points: {', '.join(sol.cover.uncovered)}")
        if sol.cover.essential:
            witness = ", ".join(
                f"{y} covers {sol.cover.privately_covered[y]} alone"
                for y in sol.cover.essential
            )
            print(f"essential indices: {witness}")
        if sol.witness_alt is not None:
            print(f"second solution: {', '.join(_assignments(sol.witness_alt, '='))}")
        for c in sol.caveats:
            print(f"note: {c}")
    return EXIT_NO_SOLUTION if sol.status == Status.NO_SOLUTION else EXIT_OK


def cmd_apply(args) -> int:
    problem = load_problem(args.file)
    kernel = problem.kernel
    if args.direction == "B":
        if args.g is not None:
            raise ValidationError("--direction B reads --f, not --g")
        if args.f is None:
            raise ValidationError("--direction B needs --f")
        result = apply_forward(kernel, parse_function_arg(args.f, kernel.y_labels))
    else:
        if args.f is not None:
            raise ValidationError("--direction Bstar reads --g, not --f")
        gn = problem.g if args.g is None else parse_function_arg(args.g, kernel.x_labels)
        result = apply_adjoint(kernel, gn)
    if args.json:
        print(render_report(function_to_json(result), sort_keys=False))
    else:
        print("\n".join(_assignments(result)))
    return EXIT_OK


def cmd_lab(args) -> int:
    result = run_experiment(args.name, step=args.step, a=args.a, curve=args.curve)
    if args.csv is not None:
        if not result.curves:
            raise ValidationError(f"lab {args.name} samples no curves to write to --csv")
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process, not at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the contract
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
