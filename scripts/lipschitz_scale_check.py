#!/usr/bin/env python3
"""Solve two large 1-D grid problems twice each and compare the answers.

Usage:
    PYTHONPATH=src python scripts/lipschitz_scale_check.py

Both problems live on the grid -7..7 with step 0.001 on both sides
(14001 points), at tol 1e-9:

- ``lipschitz``: the kernel -|y - x|, the target g = B(0.5 y^2);
- ``quadratic``: the kernel x*y - 0.5 y^2 (``Quadratic(1.0)``), the
  target g = B(0.5 y^2 + 0.05 sin(5 y)).

Each is solved once on the kernel as built, whose tie sets reduce only
the column windows of each block, and once on the same table without
its structure, whose every pass reduces full-width blocks.  Each solve
runs in a fresh process, which reports its wall time and its peak
resident set (``ru_maxrss``).  The exit code is 1 unless, for each
problem, both give the same status and the same bytes of ``f_min`` and
of the tie family's ``indptr`` and ``indices``.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

PROBLEMS = ("lipschitz", "quadratic")
SIDES = ("windowed", "blocked")


def solve_once(problem: str, side: str) -> dict:
    """Build the problem, solve it on one side, and report."""
    import numpy as np

    from galois_solve import FunctionOnSpace, Problem, apply_forward, solve
    from galois_solve.kernel import (GridSpec, Kernel, OmegaLipschitz, Quadratic,
                                     build_grid_kernel)

    grid = GridSpec.line(-7.0, 7.0, 0.001)
    pts = grid.points()
    if problem == "lipschitz":
        kernel = build_grid_kernel(OmegaLipschitz(1.0, 1.0), grid, grid)
        f = 0.5 * pts * pts
    else:
        kernel = build_grid_kernel(Quadratic(1.0), grid, grid)
        f = 0.5 * pts * pts + 0.05 * np.sin(5.0 * pts)
    g = apply_forward(kernel, FunctionOnSpace(grid, f))
    if side == "blocked":
        kernel = Kernel(grid, grid, kernel.table)
    start = time.perf_counter()
    sol = solve(Problem(kernel, g, tolerance=1e-9))
    wall = time.perf_counter() - start
    # hashed from the arrays' own buffers: a copy would raise the peak
    digests = {name: hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()
               for name, arr in (("f_min", sol.f_min.values),
                                 ("indptr", sol.family.indptr),
                                 ("indices", sol.family.indices))}
    return {"problem": problem, "side": side, "status": sol.status.value, **digests,
            "members": int(sol.family.indptr[-1]), "wall_s": round(wall, 3),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--problem", choices=PROBLEMS, help="solve one problem ...")
    parser.add_argument("--side", choices=SIDES, help="... on one side, in this process")
    args = parser.parse_args(argv)
    if args.problem and args.side:
        print(json.dumps(solve_once(args.problem, args.side)))
        return 0

    failed = False
    for problem in PROBLEMS:
        reports = []
        for side in SIDES:
            out = subprocess.run([sys.executable, __file__, "--problem", problem,
                                  "--side", side],
                                 check=True, capture_output=True, text=True).stdout
            reports.append(json.loads(out.splitlines()[-1]))
        for r in reports:
            print(f"{problem} {r['side']:>8}: {r['status']}, {r['members']} members, "
                  f"wall {r['wall_s']:.3f} s, ru_maxrss {r['ru_maxrss_mb']:.1f} MB")
        keys = ("status", "f_min", "indptr", "indices")
        differ = [k for k in keys if reports[0][k] != reports[1][k]]
        if differ:
            print(f"{problem}: the two solves differ in: " + ", ".join(differ))
            failed = True
        else:
            print(f"{problem}: the same status, f_min, indptr and indices")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
