#!/usr/bin/env python3
"""Compare the ``solve --json`` writer with the dict renderer.

Usage:
    PYTHONPATH=src python scripts/report_bytes_check.py [--seed N]

The inputs are the problem files that ``solve`` reads in the cli-files
and grid-lab workloads of ``perfbench/gen.py`` at the seed (default
11): the coupling and form tables, up to 900 x 900 and 2000 x 500, the
desk fixtures and files, and the grid-family files, among them a
2001-point Lipschitz line whose tie family has tens of thousands of
members.  Each is solved once, and
``serialize.report_text`` of the solution is compared with
``render_report(solution_to_report(...))``, the bytes ``json.dumps(...,
indent=2, sort_keys=True)`` writes.  The exit code is 1 unless every
report is byte-identical.
"""

import argparse
import pathlib
import sys
import tempfile

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

    from galois_solve.serialize import (load_problem, render_report, report_text,
                                        solution_to_report)
    from galois_solve.solver import solve

    differ = []
    with tempfile.TemporaryDirectory() as inputs:
        paths = solve_inputs(args.seed, inputs)
        for path in paths:
            sol = solve(load_problem(path))
            text = report_text(sol)
            same = text == render_report(solution_to_report(sol))
            name = pathlib.Path(path).name
            print(f"{name}: {len(text)} bytes, {len(sol.family.indices)} members"
                  + ("" if same else ", DIFFERENT"))
            if not same:
                differ.append(name)
    if differ:
        print("the writer differs from the dict renderer on: " + ", ".join(differ))
        return 1
    print(f"the same bytes on all {len(paths)} problem files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
