"""Existence and uniqueness of solutions of the inverse problem.

Given a kernel and a target g, the equation asks for f with the forward
transform of f equal to g (on a restriction X' of the x side, with the
inequality <= holding globally), and f = +inf off a restriction Y' of
the y side.  The decision procedure:

* the adjoint transform of g is the candidate minimal solution;
* a solution exists iff the inverse subdifferential sets, indexed by the
  lower domain of the candidate, cover X' intersected with the upper
  domain of g;
* the solution is unique iff that covering is minimal (every index
  essential) -- the finite-index criterion, used here verbatim.

Points where g is -inf are automatically satisfied and excluded from
the universe; indices where the candidate is +inf, among them every
index off Y', are excluded from the pool.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Tuple

import numpy as np

from .covering import CoverFamily, CoverReport, check_cover, irredundant_subcover
from .engine import FunctionOnSpace, apply_forward, subdiff_inverse
from .errors import InternalError, NoSolutionError, ValidationError
from .extreal import DEFAULT_TOL, close
from .kernel import Kernel, same_space


class Status(str, enum.Enum):
    NO_SOLUTION = "no_solution"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Problem:
    """A kernel, a target g on its x side, the restrictions X' of x and
    Y' of y (None for the whole side) and a tolerance.  Restricting Y
    forces f = +inf off Y'.  ``x_mask`` and ``y_mask`` hold X' and Y'
    as masks over the kernel's sides."""

    kernel: Kernel
    g: FunctionOnSpace
    x_restrict: Optional[Tuple[str, ...]] = None
    y_restrict: Optional[Tuple[str, ...]] = None
    tolerance: float = DEFAULT_TOL
    x_mask: np.ndarray = field(init=False, repr=False, compare=False)
    y_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not same_space(self.g.space, self.kernel.x_space):
            raise ValidationError("target labels do not match the kernel's x side")
        for side, n in zip("xy", self.kernel.shape):
            restrict = getattr(self, side + "_restrict")
            if restrict is None:
                mask = np.ones(n, dtype=bool)
            else:
                restrict = tuple(restrict)
                keep = set(restrict)
                labels = getattr(self.kernel, side + "_labels")
                mask = np.fromiter((l in keep for l in labels), bool, len(labels))
                if mask.sum() != len(keep):
                    raise ValidationError(
                        f"unknown {side} labels: {sorted(keep - set(labels))}")
                object.__setattr__(self, side + "_restrict", restrict)
            mask.flags.writeable = False
            object.__setattr__(self, side + "_mask", mask)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValidationError(
                f"tolerance must be finite and nonnegative, not {self.tolerance!r}")


@dataclass(frozen=True, eq=False)
class Solution:
    """``transformed`` is the forward transform of ``f_min``, to compare
    with the ``target`` g."""

    status: Status
    f_min: FunctionOnSpace
    cover: CoverReport
    family: CoverFamily
    witness_alt: Optional[FunctionOnSpace]
    target: FunctionOnSpace
    transformed: FunctionOnSpace
    caveats: Tuple[str, ...]


def solve(problem: Problem) -> Solution:
    """Full decision: status, minimal solution, covering certificate,
    and (when solutions are not unique) a distinct verified witness.

    The minimal solution and the covering sets come from one pass of
    the adjoint reduction; off Y' the minimal solution is +inf, which
    takes those indices out of the pool."""
    kernel, g = problem.kernel, problem.g
    top, family = subdiff_inverse(kernel, g, problem.tolerance)
    top = np.where(problem.y_mask, top, math.inf)
    f_min = FunctionOnSpace(kernel.y_space, top)
    family = family.cut(top < math.inf, problem.x_mask & (g.values > -math.inf))
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
    keep = family.pool[irredundant_subcover(family)]
    if len(keep) == len(family.pool):
        raise InternalError("non-minimal covering produced no removable index")
    vals = np.full(len(f_min.values), math.inf)
    vals[keep] = f_min.values[keep]
    witness = FunctionOnSpace(f_min.space, vals)
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
    """Direct check that f, taken as +inf off Y', solves the (possibly
    restricted) problem: the transform must be <= g everywhere and equal
    to g on X'."""
    g, tol, kernel = problem.g, problem.tolerance, problem.kernel
    if not same_space(f.space, kernel.y_space):
        raise ValidationError("function labels do not match the kernel's y side")
    bf = apply_forward(kernel, FunctionOnSpace(
        kernel.y_space, np.where(problem.y_mask, f.values, math.inf)))
    holds = np.where(problem.x_mask, close(bf.values, g.values, tol),
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


def solution_structure(problem: Problem) -> StructureReport:
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
    if len(pool) > _ENUM_LIMIT:
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
    index, then random positive bumps of the indices in Y') for a second
    solution.  Intended for desk-scale instances.
    """
    y_labels = tuple(compress(problem.kernel.y_labels, problem.y_mask))
    if problem.kernel.shape[0] > 6 or len(y_labels) > 6:
        raise ValidationError("oracle check is limited to |X|, |Y'| <= 6")
    sol = solve(problem)
    f_min = sol.f_min
    # f_min is +inf off Y' already, as verify takes it
    exists_oracle = verify(problem, f_min).is_solution
    if exists_oracle != (sol.status != Status.NO_SOLUTION):
        return False
    if not exists_oracle:
        return True

    def solves(y: str, v: float) -> bool:
        return verify(problem, f_min.with_value(y, v)).is_solution

    found_second = any(solves(y, math.inf) for y, v in zip(f_min.labels, f_min.values)
                       if v < math.inf)
    rng = random.Random(seed)
    for _ in range(0 if found_second or not y_labels else trials):
        y = rng.choice(y_labels)
        old = f_min.value(y).v
        new = math.inf if rng.random() < 0.5 else old + rng.uniform(1e-6, 4.0)
        if new != old and solves(y, new):
            found_second = True
            break
    return (not found_second) == (sol.status == Status.UNIQUE)
