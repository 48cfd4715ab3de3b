#!/usr/bin/env python3
"""Solve three large problems twice each and compare the answers, and
check the witness of a fourth.

Usage:
    PYTHONPATH=src python scripts/lipschitz_scale_check.py

Two problems live on the grid -7..7 with step 0.001 on both sides
(14001 points), at tol 1e-9:

- ``lipschitz``: the kernel -|y - x|, the target g = B(0.5 y^2);
- ``quadratic``: the kernel x*y - 0.5 y^2 (``Quadratic(1.0)``), the
  target g = B(0.5 y^2 + 0.05 sin(5 y)).

Each is solved once on the kernel as built, whose tie sets reduce only
the column windows of each block, and once on the same table without
its structure, whose every pass reduces full-width blocks.  The third,
``moreau``, is a stored 2000 x 2000 coupling table of integers in
-50..50, finite at about 5 % of its entries (at least one per row and
per column), with the planted target g = B f0, f0 integer and +inf at
a tenth of the points.  It is solved once on the table as stored,
whose passes reduce only its finite entries (kept in compressed sparse
rows), and once on the same table without them, read in full-width
blocks.  Each solve runs in a fresh process, which reports its wall
time and its peak resident set (``ru_maxrss``).  The exit code is 1
unless, for each problem, both give the same status and the same bytes
of ``f_min`` and of the tie family's ``indptr`` and ``indices``, and,
for ``moreau``, of the ``solve --json`` report (``report_text``).

The fourth, ``witness``, is a dense stored 2000 x 2000 table of 0 and
1 with a constant target, whose solutions are ``multiple`` and whose
tie sets are rows of about 1000 members.  It is solved once, and the
exit code is 1 unless its witness is +inf somewhere, the witness's
forward transform, which reads only the columns where it is finite,
equals the maximum over the full-width table of its slices bit for
bit, and the subcover the witness keeps is minimal.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

# each problem's two sides: its fast path, then full-width blocks
PROBLEMS = {"lipschitz": ("windowed", "blocked"), "quadratic": ("windowed", "blocked"),
            "moreau": ("support", "blocked"), "witness": ("kept",)}
SIDES = ("windowed", "support", "blocked", "kept")


def moreau_kernel(n: int = 2000, share: float = 0.05):
    """The sparse stored coupling table of the ``moreau`` problem, with
    its target's f0."""
    import numpy as np

    from galois_solve.kernel import CouplingTable, Kernel

    rng = np.random.default_rng(2000)
    bbar = rng.integers(-50, 51, (n, n)).astype(float)
    finite = rng.random((n, n)) < share
    finite[np.arange(n), rng.permutation(n)] = True
    bbar[~finite] = -np.inf
    f0 = rng.integers(-50, 51, n).astype(float)
    f0[rng.random(n) < 0.1] = np.inf
    labels = [f"p{k}" for k in range(n)]
    return Kernel(labels, labels, CouplingTable.stored(bbar)), f0


def check_witness() -> dict:
    """Solve the ``witness`` problem and check its witness."""
    import numpy as np

    from galois_solve import FunctionOnSpace, Problem, check_cover, solve, verify
    from galois_solve.engine import slice_table
    from galois_solve.kernel import CouplingTable, Kernel

    n = 2000
    rng = np.random.default_rng(2001)
    labels = [f"p{k}" for k in range(n)]
    kernel = Kernel(labels, labels, CouplingTable.stored(rng.integers(0, 2, (n, n))))
    problem = Problem(kernel, FunctionOnSpace(kernel.x_space, np.zeros(n)))
    start = time.perf_counter()
    sol = solve(problem)
    wall = time.perf_counter() - start
    witness = sol.witness_alt.values
    got = verify(problem, sol.witness_alt).transformed.values
    want = slice_table(kernel, witness).max(axis=1)
    family = sol.family
    kept = np.isin(family.pool, np.flatnonzero(witness < np.inf))
    minimal = check_cover(family.cut(kept, np.ones(len(family.points), dtype=bool))).is_minimal
    return {"problem": "witness", "side": "kept", "status": sol.status.value,
            "members": int(family.indptr[-1]), "kept": int(kept.sum()),
            "some_inf": bool(np.isposinf(witness).any()),
            "same_bytes": got.tobytes() == want.tobytes(), "minimal": bool(minimal),
            "wall_s": round(wall, 3),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def solve_once(problem: str, side: str) -> dict:
    """Build the problem, solve it on one side, and report."""
    import numpy as np

    from galois_solve import FunctionOnSpace, Problem, apply_forward, solve
    from galois_solve.kernel import (CouplingTable, GridSpec, Kernel, OmegaLipschitz,
                                     Quadratic, build_grid_kernel)
    from galois_solve.serialize import report_text

    if problem == "moreau":
        kernel, f = moreau_kernel()
        space = kernel.y_space
    else:
        space = grid = GridSpec.line(-7.0, 7.0, 0.001)
        pts = grid.points()
        if problem == "lipschitz":
            kernel = build_grid_kernel(OmegaLipschitz(1.0, 1.0), grid, grid)
            f = 0.5 * pts * pts
        else:
            kernel = build_grid_kernel(Quadratic(1.0), grid, grid)
            f = 0.5 * pts * pts + 0.05 * np.sin(5.0 * pts)
    g = apply_forward(kernel, FunctionOnSpace(space, f))
    table = kernel.table
    if side == "support" and table.support is None:
        raise RuntimeError("the moreau table keeps no CSR")
    if side == "blocked":  # the same table without its structure or its CSR
        kernel = Kernel(kernel.x_space, kernel.y_space,
                        CouplingTable(table.rows, table.cols, table.shape, table.lazy))
    start = time.perf_counter()
    sol = solve(Problem(kernel, g, tolerance=1e-9))
    wall = time.perf_counter() - start
    # hashed from the arrays' own buffers: a copy would raise the peak
    digests = {name: hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()
               for name, arr in (("f_min", sol.f_min.values),
                                 ("indptr", sol.family.indptr),
                                 ("indices", sol.family.indices))}
    if problem == "moreau":
        digests["report"] = hashlib.sha256(report_text(sol).encode()).hexdigest()
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
        if args.problem == "witness":
            print(json.dumps(check_witness()))
        else:
            print(json.dumps(solve_once(args.problem, args.side)))
        return 0

    failed = False
    for problem, sides in PROBLEMS.items():
        reports = []
        for side in sides:
            out = subprocess.run([sys.executable, __file__, "--problem", problem,
                                  "--side", side],
                                 check=True, capture_output=True, text=True).stdout
            reports.append(json.loads(out.splitlines()[-1]))
        for r in reports:
            print(f"{problem} {r['side']:>8}: {r['status']}, {r['members']} members, "
                  f"wall {r['wall_s']:.3f} s, ru_maxrss {r['ru_maxrss_mb']:.1f} MB")
        if problem == "witness":
            r = reports[0]
            ok = r["status"] == "multiple" and r["some_inf"] and r["same_bytes"] and r["minimal"]
            print(f"witness: keeps {r['kept']} of 2000 columns, a minimal subcover: "
                  f"{r['minimal']}, its transform the full-width table's bytes: "
                  f"{r['same_bytes']}")
            failed |= not ok
            continue
        keys = [k for k in ("status", "f_min", "indptr", "indices", "report")
                if k in reports[0]]
        differ = [k for k in keys if reports[0][k] != reports[1][k]]
        if differ:
            print(f"{problem}: the two solves differ in: " + ", ".join(differ))
            failed = True
        else:
            print(f"{problem}: the same " + ", ".join(keys))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
