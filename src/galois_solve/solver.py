"""Existence and uniqueness of solutions of the inverse problem.

Given a kernel and a target g, the equation asks for f with the forward
transform of f equal to g (on a restriction X' of the x side, with the
inequality <= holding globally).  The decision procedure:

* the adjoint transform of g is the candidate minimal solution;
* a solution exists iff the inverse subdifferential sets, indexed by the
  lower domain of the candidate, cover X' intersected with the upper
  domain of g;
* the solution is unique iff that covering is minimal (every index
  essential) -- the finite-index criterion, used here verbatim.

Points where g is -inf are automatically satisfied and excluded from
the universe; indices where the candidate is +inf are excluded from the
pool.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .covering import CoverFamily, CoverReport, check_cover, irredundant_subcover
from .engine import FunctionOnSpace, apply_forward, subdiff_inverse
from .errors import InternalError, NoSolutionError, ValidationError
from .extreal import DEFAULT_TOL, ExtReal, close
from .kernel import Kernel


class Status(str, enum.Enum):
    NO_SOLUTION = "no_solution"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Problem:
    kernel: Kernel
    g: FunctionOnSpace
    x_restrict: Optional[Tuple[str, ...]] = None
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        if self.g.labels != self.kernel.x_labels:
            raise ValidationError("target labels do not match the kernel's x side")
        if self.x_restrict is not None:
            xr = tuple(self.x_restrict)
            unknown = set(xr) - set(self.kernel.x_labels)
            if unknown:
                raise ValidationError(f"unknown x labels: {sorted(unknown)}")
            object.__setattr__(self, "x_restrict", xr)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValidationError(
                f"tolerance must be finite and nonnegative, not {self.tolerance!r}")

    def _x_mask(self) -> np.ndarray:
        """X' as a mask over the kernel's x side."""
        if self.x_restrict is None:
            return np.ones(len(self.kernel.x_labels), dtype=bool)
        keep = set(self.x_restrict)
        return np.array([l in keep for l in self.kernel.x_labels], dtype=bool)


@dataclass(frozen=True, eq=False)
class Solution:
    """``transformed`` is the forward transform of ``f_min``, to compare
    with the ``target`` g; ``residual`` is the same pair by label."""

    status: Status
    f_min: FunctionOnSpace
    cover: CoverReport
    family: CoverFamily
    witness_alt: Optional[FunctionOnSpace]
    target: FunctionOnSpace
    transformed: FunctionOnSpace
    caveats: Tuple[str, ...]

    @cached_property
    def residual(self) -> Dict[str, Tuple[ExtReal, ExtReal]]:
        return {l: (ExtReal(gv), ExtReal(pv)) for l, gv, pv in zip(
            self.target.labels, self.target.values, self.transformed.values)}


def solve(problem: Problem) -> Solution:
    """Full decision: status, minimal solution, covering certificate,
    and (when solutions are not unique) a distinct verified witness.

    The minimal solution and the covering sets come from one pass of
    the adjoint reduction."""
    kernel, g = problem.kernel, problem.g
    top, family = subdiff_inverse(kernel, g, problem.tolerance)
    f_min = FunctionOnSpace(kernel.y_labels, top)
    family = family.cut(top < math.inf, problem._x_mask() & (g.values > -math.inf))
    report = check_cover(family)

    pg = apply_forward(kernel, f_min)

    caveats = ()
    if kernel.is_grid:
        caveats = (
            "grid-approximation: verdicts certify the discretised problem, "
            "not its continuum limit",
        )

    if not report.is_cover:
        return Solution(Status.NO_SOLUTION, f_min, report, family, None,
                        g, pg, caveats)
    if report.is_minimal:
        return Solution(Status.UNIQUE, f_min, report, family, None,
                        g, pg, caveats)

    witness = _alternate_witness(problem, f_min, family)
    return Solution(Status.MULTIPLE, f_min, report, family, witness,
                    g, pg, caveats)


def _alternate_witness(problem: Problem, f_min: FunctionOnSpace,
                       family: CoverFamily) -> FunctionOnSpace:
    """A second solution: keep the minimal solution on an irredundant
    subcover of the index pool and raise everything else to +inf.

    A non-minimal covering guarantees the subcover is proper, so the
    witness genuinely differs from the minimal solution.  It is
    re-verified by direct application of the forward transform.
    """
    keep = set(irredundant_subcover(family))
    if len(keep) == len(family.index_pool):
        raise InternalError("non-minimal covering produced no removable index")
    vals = np.where([y in keep for y in f_min.labels], f_min.values, math.inf)
    witness = FunctionOnSpace(f_min.labels, vals)
    if not verify(problem, witness).is_solution:
        raise InternalError("constructed witness failed re-verification")
    return witness


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """``holds`` marks the x where the check passed."""

    is_solution: bool
    transformed: FunctionOnSpace
    target: FunctionOnSpace
    holds: np.ndarray


def verify(problem: Problem, f: FunctionOnSpace) -> VerifyReport:
    """Direct check that f solves the (possibly restricted) problem:
    the transform must be <= g everywhere and equal to g on X'."""
    g, tol = problem.g, problem.tolerance
    bf = apply_forward(problem.kernel, f)
    holds = np.where(problem._x_mask(), close(bf.values, g.values, tol),
                     bf.values <= g.values + tol)
    return VerifyReport(bool(holds.all()), bf, g, holds)


@dataclass(frozen=True)
class StructureReport:
    """Shape of the whole solution set for a solvable finite problem.

    A function f solves the problem iff f >= f_min and the set of
    indices where f equals f_min (within the pool) covers the universe.
    ``minimal_active_sets`` is the antichain of inclusion-minimal such
    index sets; the admissible active sets are exactly their supersets.
    ``forced`` is the set of essential indices, where every solution
    agrees with the minimal one.
    """

    forced: Tuple[str, ...]
    minimal_active_sets: Tuple[Tuple[str, ...], ...]
    admissible_active_sets: Optional[Tuple[Tuple[str, ...], ...]]
    degenerate: Optional[str]


#: enumerate all subsets only below this pool size
_ENUM_LIMIT = 14


def solution_structure(problem: Problem, limit: int = _ENUM_LIMIT) -> StructureReport:
    sol = solve(problem)
    if sol.status == Status.NO_SOLUTION:
        raise NoSolutionError("problem has no solution")
    family, g = sol.family, problem.g

    degenerate = None
    if np.all(np.isneginf(g.values)):
        degenerate = "target identically -inf: the top function is the sole solution"
    elif np.all(np.isposinf(g.values)):
        degenerate = "target identically +inf"

    pool = family.index_pool
    if len(pool) > limit:
        return StructureReport(sol.cover.essential, None, None, degenerate)

    admissible = []
    for mask in range(1 << len(pool)):
        subset = tuple(pool[k] for k in range(len(pool)) if mask >> k & 1)
        if family.covers(subset):
            admissible.append(subset)
    minimal = tuple(
        s for s in admissible
        if not any(set(t) < set(s) for t in admissible)
    )
    return StructureReport(
        forced=sol.cover.essential,
        minimal_active_sets=minimal,
        admissible_active_sets=tuple(admissible),
        degenerate=degenerate,
    )


def oracle_check(problem: Problem, trials: int = 200, seed: int = 0) -> bool:
    """First-principles cross-examination of :func:`solve`.

    Existence must agree with the projector fixed-point test; uniqueness
    must agree with a perturbation search (systematic +inf bumps at each
    index, then random positive bumps) for a second solution.  Intended
    for desk-scale instances.
    """
    nx, ny = problem.kernel.shape
    if nx > 6 or ny > 6:
        raise ValidationError("oracle check is limited to |X|, |Y| <= 6")
    tol = problem.tolerance
    sol = solve(problem)
    g = problem.g
    f_min = sol.f_min

    pg = apply_forward(problem.kernel, f_min)
    in_universe = problem._x_mask() & (g.values > -math.inf)
    exists_oracle = pg.leq(g, tol) and bool(
        close(pg.values, g.values, tol)[in_universe].all()
    )
    if exists_oracle != (sol.status != Status.NO_SOLUTION):
        return False
    if not exists_oracle:
        return True

    def solves(y: str, v: float) -> bool:
        return verify(problem, f_min.with_value(y, v)).is_solution

    found_second = any(solves(y, math.inf) for y, v in zip(f_min.labels, f_min.values)
                       if v < math.inf)
    rng = random.Random(seed)
    for _ in range(0 if found_second else trials):
        y = rng.choice(problem.kernel.y_labels)
        old = f_min.value(y).v
        new = math.inf if rng.random() < 0.5 else old + rng.uniform(1e-6, 4.0)
        if new != old and solves(y, new):
            found_second = True
            break
    return (not found_second) == (sol.status == Status.UNIQUE)
