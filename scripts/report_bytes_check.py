#!/usr/bin/env python3
"""Compare the ``solve --json`` and ``apply --json`` writers with ``json.dumps``.

Usage:
    PYTHONPATH=src python scripts/report_bytes_check.py [--seed N]

The inputs are the problem files that ``solve`` reads in the cli-files
and grid-lab workloads of ``perfbench/gen.py`` at the seed (default
11): the coupling and form tables, up to 900 x 900 and 2000 x 500, the
desk fixtures and files, and the grid-family files, among them a
2001-point Lipschitz line whose tie family has tens of thousands of
members.  Each is solved once, and ``serialize.report_text`` of the
solution is compared with ``json.dumps(solution_to_report(...),
indent=2, sort_keys=True)``.  Each is also given to ``apply --json`` as
``scripts/output_digests.py`` calls it, ``--direction Bstar`` on the
file's own g and ``--direction B`` with f = 0 on every y, and what it
prints is compared with ``json.dumps(function_to_json(result),
indent=2)``.  The exit code is 1 unless every output is byte-identical.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]


def solve_inputs(seed: int, inputs: str):
    """The distinct problem files ``solve`` reads in the two workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    paths = {}
    for workload in ("cli-files", "grid-lab"):
        planned, _, _ = gen.plan(workload, seed, inputs, str(ROOT))
        for call in planned:
            if call["argv"][0] == "solve":
                paths.setdefault(call["argv"][1])
    return list(paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    from galois_solve.cli import main as cli_main
    from galois_solve.engine import FunctionOnSpace, apply_adjoint, apply_forward
    from galois_solve.serialize import (function_to_json, load_problem, report_text,
                                        solution_to_report)
    from galois_solve.solver import solve

    def printed(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(argv)
        return out.getvalue()

    differ = []
    with tempfile.TemporaryDirectory() as inputs:
        paths = solve_inputs(args.seed, inputs)
        for path in paths:
            problem = load_problem(path)
            kernel, name = problem.kernel, pathlib.Path(path).name
            sol = solve(problem)
            text = report_text(sol)
            same = text == json.dumps(solution_to_report(sol), indent=2, sort_keys=True)
            print(f"{name}: {len(text)} bytes, {len(sol.family.indices)} members"
                  + ("" if same else ", DIFFERENT"))
            if not same:
                differ.append(name)
            zero = FunctionOnSpace(kernel.y_space, np.zeros(kernel.shape[1]))
            applied = {
                "Bstar": (["--direction", "Bstar"], apply_adjoint(kernel, problem.g)),
                "B": (["--direction", "B", "--f", json.dumps(dict.fromkeys(
                    kernel.y_labels, 0))], apply_forward(kernel, zero))}
            for direction, (flags, result) in applied.items():
                want = json.dumps(function_to_json(result), indent=2) + "\n"
                if printed(["apply", path, *flags, "--json"]) != want:
                    print(f"{name}: apply --direction {direction} --json, DIFFERENT")
                    differ.append(f"{name} apply {direction}")
    if differ:
        print("the writers differ from json.dumps on: " + ", ".join(differ))
        return 1
    print(f"the same bytes on all {len(paths)} problem files, solved and applied both ways")
    return 0


if __name__ == "__main__":
    sys.exit(main())
