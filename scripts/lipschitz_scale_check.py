#!/usr/bin/env python3
"""Solve one large Lipschitz-line problem twice and compare the answers.

Usage:
    PYTHONPATH=src python scripts/lipschitz_scale_check.py

The problem is the 14001-point solve: the kernel -|y - x| on the grid
-7..7 with step 0.001 on both sides, the target g = B(0.5 y^2), tol
1e-9.  It is solved once on the kernel as built, whose tie sets reduce
only the column windows of each block, and once on the same table
without its Lipschitz line, whose every pass reduces full-width blocks.
Each solve runs in a fresh process, which reports its wall time and its
peak resident set (``ru_maxrss``).  The exit code is 1 unless both give
the same status and the same bytes of ``f_min`` and of the tie family's
``indptr`` and ``indices``.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

SIDES = ("windowed", "blocked")


def solve_once(side: str) -> dict:
    """Build the problem, solve it on one side, and report."""
    import numpy as np

    from galois_solve import FunctionOnSpace, Problem, apply_forward, solve
    from galois_solve.kernel import GridSpec, Kernel, OmegaLipschitz, build_grid_kernel

    grid = GridSpec.line(-7.0, 7.0, 0.001)
    kernel = build_grid_kernel(OmegaLipschitz(1.0, 1.0), grid, grid)
    pts = grid.points()
    g = apply_forward(kernel, FunctionOnSpace(grid, 0.5 * pts * pts))
    if side == "blocked":
        kernel = Kernel(grid, grid, kernel.table)
    start = time.perf_counter()
    sol = solve(Problem(kernel, g, tolerance=1e-9))
    wall = time.perf_counter() - start
    digests = {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
               for name, arr in (("f_min", sol.f_min.values),
                                 ("indptr", sol.family.indptr),
                                 ("indices", sol.family.indices))}
    return {"side": side, "status": sol.status.value, **digests, "wall_s": round(wall, 3),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--side", choices=SIDES, help="solve one side in this process")
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps(solve_once(args.side)))
        return 0

    reports = []
    for side in SIDES:
        out = subprocess.run([sys.executable, __file__, "--side", side],
                             check=True, capture_output=True, text=True).stdout
        reports.append(json.loads(out.splitlines()[-1]))
    for r in reports:
        print(f"{r['side']:>8}: {r['status']}, wall {r['wall_s']:.3f} s, "
              f"ru_maxrss {r['ru_maxrss_mb']:.1f} MB")
    keys = ("status", "f_min", "indptr", "indices")
    differ = [k for k in keys if reports[0][k] != reports[1][k]]
    if differ:
        print("the two solves differ in: " + ", ".join(differ))
        return 1
    print("the same status, f_min, indptr and indices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
