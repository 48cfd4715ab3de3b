#!/usr/bin/env python3
"""Walk through the 2x3 demo kernel end to end.

Shows the three regimes on one kernel: a target with many solutions, a
restriction of Y to the columns y1 and y2 that forces uniqueness (the
minimal solution is +inf off them, at y3), and a target with none.

Usage:
    python scripts/worked_example.py
"""

import sys

from galois_solve import (
    FunctionOnSpace,
    Problem,
    build_table,
    solution_structure,
    solve,
    verify,
)
from galois_solve.scalar import Affine, SignedPower


def show(title, problem):
    print(f"== {title}")
    sol = solve(problem)
    print(f"   status: {sol.status.value}")
    print("   minimal solution:", ", ".join(
        f"{l}={v}" for l, v in sol.f_min.as_dict().items()))
    print("   covering sets:", {
        y: sorted(sol.family.sets[y]) for y in sol.family.index_pool})
    if sol.witness_alt is not None:
        print("   another solution:", ", ".join(
            f"{l}={v}" for l, v in sol.witness_alt.as_dict().items()))
        rep = verify(problem, sol.witness_alt)
        print("   re-verified:", rep.is_solution)
    if sol.cover.uncovered:
        print("   uncovered:", sol.cover.uncovered)
    return sol


def main() -> int:
    kernel = build_table([
        [Affine(0, 1), Affine(4, 3), Affine(2, 1)],
        [SignedPower(0, 2), Affine(3, 1), Affine(0, 1)],
    ])
    g = FunctionOnSpace.from_mapping(kernel.x_labels, {"x1": 8, "x2": 6})
    g_bad = FunctionOnSpace.from_mapping(kernel.x_labels, {"x1": 3, "x2": -3})

    show("many solutions", Problem(kernel, g))
    structure = solution_structure(Problem(kernel, g))
    print("   minimal active sets:", structure.minimal_active_sets)

    show("restricted to two columns: unique",
         Problem(kernel, g, y_restrict=("y1", "y2")))
    show("unsolvable target", Problem(kernel, g_bad))
    return 0


if __name__ == "__main__":
    sys.exit(main())
