"""Grid experiments for the continuous conjugacy families.

Every experiment discretises a continuous example onto a uniform grid,
runs the finite machinery, and compares against closed forms.  Grid
truncation turns suprema over the line into maxima over a window, so
conjugate values whose argmax lands on the window edge are flagged and
excluded from pass/fail accounting: a boundary-attained maximum may
mask divergence.

A :class:`GridFunction` is a :class:`~galois_solve.engine.FunctionOnSpace`
whose space is a :class:`~galois_solve.kernel.GridSpec`.  Every maximum
over a grid, with its exact argmax set, comes from the engine's
reduction (:func:`galois_solve.engine.sup_pass`) over a grid kernel, at
tie tolerance 0.  The pre-checks read kernel entries, not the
reduction: the Lipschitz experiment's input check evaluates the modulus
with the kernel's own per-entry operations, and the exgeom experiment's
spot subdifferentials read the kernel's rows.  The exgeom
nonempty-subdifferential predicate stays independent of the reduction
too.  The quadratic experiment's two routes share only the reduction;
their integrands are built apart.

Tolerances follow the local-slope model: a C^1 integrand sampled at
step h attains its supremum up to h times a slope bound, so pass/fail
thresholds are stated as multiples of the step with explicit constants,
never as free-floating magic numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional

import numpy as np

from .engine import FunctionOnSpace, apply_adjoint, apply_forward, run_spans, sup_pass
from .errors import NotLipschitzError, ValidationError
from .extreal import to_json
from .kernel import (
    FenchelDot,
    GridSpec,
    OmegaLipschitz,
    Quadratic,
    WeightedPower,
    _neg_omega,
    build_grid_kernel,
)
from .solver import Problem, Status, solve


@dataclass(frozen=True, eq=False)
class GridFunction(FunctionOnSpace):
    """A function on a grid: a :class:`FunctionOnSpace` whose space is a
    :class:`GridSpec`, one value per grid point."""

    def __post_init__(self):
        if not isinstance(self.space, GridSpec):
            raise ValidationError("a grid function's space must be a GridSpec")
        super().__post_init__()

    @classmethod
    def from_callable(cls, grid: GridSpec, fn: Callable) -> "GridFunction":
        pts = grid.points()
        if grid.ndim == 1:
            vals = np.asarray(fn(pts), dtype=float)
        else:
            vals = np.asarray([fn(p) for p in pts], dtype=float)
        return cls(grid, vals)


@dataclass(frozen=True, eq=False)
class LabResult:
    """Outcome of one experiment: pass iff the worst error meets the
    stated tolerance (and any extra structural checks hold)."""

    experiment: str
    details: Dict[str, object]
    max_abs_error: float
    tolerance: float
    passed: bool
    curves: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "details": _jsonable(self.details),
            "max_abs_error": _jsonable(self.max_abs_error),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def write_curves_csv(path, curves: Dict[str, np.ndarray]) -> None:
    """One column per sampled curve; shorter curves end in empty cells."""
    keys = list(curves)
    n = max(len(curves[k]) for k in keys)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for i in range(n):
            writer.writerow(
                [curves[k][i] if i < len(curves[k]) else "" for k in keys]
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return to_json(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ----------------------------------------------------------------------
# exact maxima through the engine's reduction: per x, the maximum over y
# of bbar(x, y) - f(y) and the family of the y attaining it exactly, all
# of them where it is -inf, from sup_pass(kernel, f, tol=0.0)


def _touches(ties, where: np.ndarray) -> np.ndarray:
    """Per (nonempty) tie set, whether it meets the y mask ``where``."""
    return np.logical_or.reduceat(where[ties.indices], ties.indptr[:-1])


def _edge_mask(grid: GridSpec) -> np.ndarray:
    """Per grid point, whether some coordinate is at its axis's end."""
    pts = grid.points().reshape(len(grid), -1)
    return ((pts == pts.min(axis=0)) | (pts == pts.max(axis=0))).any(axis=1)


def _pairing(x_grid: GridSpec, y_grid: GridSpec):
    """The kernel <x, y> of the classical conjugate."""
    if x_grid.ndim > 2:
        raise ValidationError("only 1-D and 2-D grids are supported")
    return build_grid_kernel(FenchelDot(), x_grid, y_grid)


def _maxima(kernel, f: GridFunction):
    """max_y (bbar(x, y) - f(y)) over the grid kernel, as a function on
    its x grid, the first argmax per x, and a flag for maxima also
    attained on the edge of f's grid."""
    gvals, ties = sup_pass(kernel, f.values, tol=0.0)
    boundary = _touches(ties, _edge_mask(f.space))
    return (GridFunction(kernel.x_space, gvals), ties.indices[ties.indptr[:-1]],
            boundary)


def fenchel_conjugate(f: GridFunction, x_grid: GridSpec) -> GridFunction:
    """The discrete conjugate g(x) = max over grid y of <x,y> - f(y)."""
    return _maxima(_pairing(x_grid, f.space), f)[0]


def conjugate_with_flags(f: GridFunction, x_grid: GridSpec):
    """Like :func:`fenchel_conjugate` but also returns the per-point
    argmax index and the boundary-attainment flag."""
    return _maxima(_pairing(x_grid, f.space), f)


# ----------------------------------------------------------------------
# experiment: conjugate identities on the classical pairing


def fenchel_experiment(step: float = 0.01) -> LabResult:
    """Self-duality of the half-square, the window indicator conjugate
    of the absolute value, and the exact product inequality."""
    y_grid = GridSpec.line(-4.0, 4.0, step)
    x_grid = GridSpec.line(-2.0, 2.0, step)
    ypts = y_grid.points()
    xpts = x_grid.points()
    inside = np.abs(xpts) <= 0.99
    if not inside.any():
        raise ValidationError(
            f"step {step:g} leaves no x in [-0.99, 0.99], where the conjugate "
            "of |y| is measured; the largest usable step is just under 2.99")

    pairing = _pairing(x_grid, y_grid)
    f = GridFunction(y_grid, 0.5 * ypts * ypts)
    g, _, boundary = _maxima(pairing, f)
    interior = ~boundary
    err_parabola = float(np.max(np.abs(g.values[interior]
                                       - 0.5 * xpts[interior] ** 2)))

    # product inequality f(y) + g(x) >= x*y, checked against the rows of
    # the kernel the conjugate maximised over, hence exact
    t = pairing.bbar_row(slice(None)) - f.values[None, :]
    fy_violation = float((t - g.values[:, None]).max())

    f_abs = GridFunction(y_grid, np.abs(ypts))
    g_abs, _, b_abs = _maxima(pairing, f_abs)
    err_abs = float(np.max(np.abs(g_abs.values[inside])))
    outside_flagged = bool(np.all(b_abs[np.abs(xpts) > 1.0 + step]))

    tol = 1e-3
    passed = (
        err_parabola <= tol
        and fy_violation <= 0.0
        and err_abs <= tol
        and outside_flagged
    )
    return LabResult(
        experiment="fenchel",
        details={
            "step": step,
            "err_half_square_selfdual": err_parabola,
            "product_inequality_violation": fy_violation,
            "err_abs_indicator": err_abs,
            "divergent_region_flagged": outside_flagged,
        },
        max_abs_error=err_parabola,
        tolerance=tol,
        passed=bool(passed),
        curves={"x": xpts, "conjugate_of_half_square": g.values,
                "conjugate_of_abs": g_abs.values},
    )


# ----------------------------------------------------------------------
# experiment: quadratic-kernel reduction


def quadratic_reduction_check(f: GridFunction, a: float) -> LabResult:
    """Two routes to the quadratic-kernel transform of f.

    Route one runs the generic engine over the quadratic coupling
    kernel.  Route two conjugates f plus the half-square penalty.  Both
    maximise the same real-valued integrand over the same grid, so the
    attained maxima are equal numbers; the comparison evaluates the
    integrand at each route's maximiser in exact rational arithmetic
    (floats are rationals), making the expected error exactly zero.
    The raw float difference between routes is reported alongside; it
    can reach one ulp since the two routes associate the subtraction
    differently.
    """
    grid, fv = f.space, f.values
    pts = grid.points()

    top_a, arg_a, _ = _maxima(build_grid_kernel(Quadratic(a), grid, grid), f)

    if grid.ndim == 1:
        penalty = 0.5 * a * pts * pts
    else:
        penalty = 0.5 * a * np.sum(pts * pts, axis=1)
    shifted = GridFunction(grid, np.where(np.isposinf(fv), np.inf, fv + penalty))
    top_b, arg_b, _ = conjugate_with_flags(shifted, grid)
    route_a, route_b = top_a.values, top_b.values

    exact_err = _exact_route_gap(pts, pts, fv, a, route_a, route_b, arg_a, arg_b)
    with np.errstate(invalid="ignore"):
        float_gap = float(
            np.max(np.abs(np.where(route_a == route_b, 0.0, route_a - route_b)))
        )
    return LabResult(
        experiment="quadratic",
        details={
            "a": a,
            "exact_max_gap": exact_err,
            "float_route_gap": float_gap,
            "n_x": len(pts),
        },
        max_abs_error=exact_err,
        tolerance=0.0,
        passed=bool(exact_err <= 0.0),
        curves={"kernel_route": route_a, "conjugate_route": route_b},
    )


def _exact_route_gap(xpts, ypts, fv, a, route_a, route_b, arg_a, arg_b) -> float:
    half_a = Fraction(a) / 2
    xpts, ypts = xpts.reshape(len(xpts), -1), ypts.reshape(len(ypts), -1)

    def exact_value(i: int, j: int) -> Fraction:
        fj = fv[j]
        if not math.isfinite(fj):
            raise ValueError("exact evaluation needs a finite sample")
        dot = sum(Fraction(float(xc)) * Fraction(float(yc))
                  for xc, yc in zip(xpts[i], ypts[j]))
        sq = sum(Fraction(float(yc)) ** 2 for yc in ypts[j])
        return dot - half_a * sq - Fraction(float(fj))

    worst = Fraction(0)
    for i in range(len(route_a)):
        va, vb = route_a[i], route_b[i]
        if math.isinf(va) or math.isinf(vb):
            if va != vb:
                return math.inf
            continue
        if arg_a[i] == arg_b[i]:  # one maximiser: the gap is 0 exactly
            continue
        gap = abs(exact_value(i, int(arg_a[i])) - exact_value(i, int(arg_b[i])))
        if gap > worst:
            worst = gap
    return float(worst)


def quadratic_experiment(a: float = 1.0, f_name: str = "quartic") -> LabResult:
    """Default fixture on a dyadic grid (step 1/64) so that even the raw
    float routes agree bit for bit for polynomial data."""
    grid = GridSpec.line(-2.0, 2.0, 1.0 / 64.0)
    f = GridFunction.from_callable(grid, _named_curve(f_name))
    return quadratic_reduction_check(f, a)


# ----------------------------------------------------------------------
# experiment: modulus-bounded targets are projector fixed points


def lipschitz_fixed_point(g: GridFunction, a: float = 1.0,
                          q: float = 1.0) -> LabResult:
    """For targets bounded by the modulus omega(u) = a|u|^q, the adjoint
    transform is exactly -g on the grid, and the projector fixes g.

    The supremum defining the adjoint is attained on the diagonal, by
    the same subadditivity argument as in the continuous case restricted
    to grid differences, so equality is exact, not approximate.  When
    the modulus bound is strict off the diagonal the solver must report
    a unique solution.
    """
    if g.space.ndim != 1:
        raise ValidationError("this experiment runs on 1-D grids")
    family = OmegaLipschitz(a=a, q=q)
    pts, gv = g.space.points(), g.values
    if not np.all(np.isfinite(gv)):
        raise ValidationError("the target must be finite on the grid")

    worst, (i, j), strict = _modulus_check(pts, gv, a, q)
    if worst > 0:
        raise NotLipschitzError(
            f"|g({pts[i]}) - g({pts[j]})| exceeds omega by {worst:.3g}",
            pair=(float(pts[i]), float(pts[j])),
        )

    kernel = build_grid_kernel(family, g.space, g.space)
    adj = apply_adjoint(kernel, g)
    err_adjoint = float(np.max(np.abs(adj.values + gv)))
    proj = apply_forward(kernel, adj)
    err_projector = float(np.max(np.abs(proj.values - gv)))

    status = None
    if strict:
        status = solve(Problem(kernel, g)).status

    passed = (
        err_adjoint == 0.0
        and err_projector == 0.0
        and (not strict or status == Status.UNIQUE)
    )
    return LabResult(
        experiment="lipschitz",
        details={
            "a": a, "q": q,
            "err_adjoint_vs_neg_g": err_adjoint,
            "err_projector_vs_g": err_projector,
            "strict": strict,
            "solver_status": None if status is None else status.value,
        },
        max_abs_error=max(err_adjoint, err_projector),
        tolerance=0.0,
        passed=bool(passed),
        curves={"x": pts, "g": gv, "adjoint": adj.values},
    )


#: Entries of |g(x) - g(y)| - omega(x - y) held at once by the check.
_CHECK_ENTRIES = 2**18


def _modulus_check(pts: np.ndarray, gv: np.ndarray, a: float, q: float):
    """The largest |g(x) - g(y)| - omega(x - y), omega(u) = a|u|^q, over
    all pairs of grid points, the first pair in row-major order
    attaining it, and whether the difference is negative off the
    diagonal.  -omega is evaluated in place with the kernel's per-entry
    operations.  Rows go in blocks of about :data:`_CHECK_ENTRIES`
    entries, so memory stays linear in the grid size, and the blocks
    run on the engine's threads like the blocks of a pass."""
    n = len(pts)
    rows = max(1, _CHECK_ENTRIES // n)

    def check(lo: int):
        hi = min(lo + rows, n)
        viol = _neg_omega(np.subtract(pts[lo:hi, None], pts[None, :]), a, q)
        dg = np.subtract(gv[lo:hi, None], gv[None, :])
        viol += np.abs(dg, out=dg)
        k = int(np.argmax(viol))
        top = float(viol.flat[k])
        viol[np.arange(hi - lo), np.arange(lo, hi)] = -math.inf
        return top, divmod(lo * n + k, n), bool((viol < 0).all())

    worst, at, strict = -math.inf, (0, 0), True
    # in block order, so that the first block attaining the worst wins
    for top, pair, below in run_spans(check, range(0, n, rows), n * n):
        if top > worst:
            worst, at = top, pair
        strict = strict and below
    return worst, at, strict


def lipschitz_experiment(g_name: str = "abs_half", step: float = 0.01) -> LabResult:
    grid = GridSpec.line(-5.0, 5.0, step)
    g = GridFunction.from_callable(grid, _named_curve(g_name))
    return lipschitz_fixed_point(g)


# ----------------------------------------------------------------------
# experiment: weighted-power kernels and the finite-slice threshold


def weighted_power_domain(f: GridFunction, p: float,
                          xprime_grid: GridSpec,
                          xsecond_grid: GridSpec) -> LabResult:
    """Transform of f under the kernel -x''*|y - x'|^p, per x'' level.

    For each weight level the report says whether the transform is
    finite across the whole x' slice, and whether that finiteness is
    certified: a maximum attained on the y-window edge may merely
    truncate a divergent supremum, so such slices count as finite on the
    grid but not certified.  The certified region must be an up-set in
    the weight, reflecting the product structure of the inner domain.
    """
    levels = xsecond_grid.points()
    # x' major, x'' minor: the column k of a reshaped result is level k
    x_grid = GridSpec(xprime_grid.dims + xsecond_grid.dims)
    top, _, at_edge = _maxima(build_grid_kernel(WeightedPower(p), x_grid, f.space), f)
    finite = np.isfinite(top.values).reshape(-1, len(levels)).all(axis=0)
    at_edge = at_edge.reshape(-1, len(levels)).any(axis=0)

    per_level = [
        {"level": float(w), "finite_on_grid": bool(fin),
         "certified": bool(fin and not edge)}
        for w, fin, edge in zip(levels, finite, at_edge)
    ]

    cert = [entry["certified"] for entry in per_level]
    upset = _is_upset(cert)
    threshold = None
    for entry in per_level:
        if entry["certified"]:
            threshold = entry["level"]
            break
    return LabResult(
        experiment="weighted-power",
        details={
            "p": p,
            "levels": per_level,
            "certified_threshold": threshold,
            "upset": upset,
        },
        max_abs_error=0.0 if upset else math.inf,
        tolerance=0.0,
        passed=bool(upset),
    )


def _is_upset(flags) -> bool:
    seen = False
    for b in flags:
        if seen and not b:
            return False
        seen = seen or b
    return True


def weighted_power_experiment() -> LabResult:
    """Fixture with f(y) = -2|y|: the transform diverges exactly for
    weights under 2, so the certified threshold must land within one
    level of 2."""
    y_grid = GridSpec.line(-50.0, 50.0, 0.1)
    f = GridFunction.from_callable(y_grid, lambda y: -2.0 * np.abs(y))
    xprime = GridSpec.line(-5.0, 5.0, 0.5)
    xsecond = GridSpec.line(0.5, 4.0, 0.5)
    base = weighted_power_domain(f, 1.0, xprime, xsecond)

    closed_form = 2.0
    level_step = 0.5
    thr = base.details["certified_threshold"]
    err = math.inf if thr is None else abs(thr - closed_form)
    details = dict(base.details)
    details["closed_form_threshold"] = closed_form
    passed = base.passed and err <= level_step
    return LabResult(
        experiment="weighted-power",
        details=details,
        max_abs_error=err,
        tolerance=level_step,
        passed=bool(passed),
    )


# ----------------------------------------------------------------------
# experiment: the geometric piecewise example


def _exgeom_target(x: np.ndarray) -> np.ndarray:
    return np.select(
        [x < 0.0, x <= 1.0, x < 3.0],
        [0.5 * x * x, x, np.ones_like(x)],
        default=x / 3.0 - 1.0,
    )


def exgeom_experiment(step: float = 1e-3) -> LabResult:
    """Projector of the piecewise target under the distance kernel.

    The projection must reproduce the closed forms: equal to the target
    on [-1, 2] and [3, 8], the reflected line -x - 1/2 left of -1, and
    3 - x between 2 and 3.  The nonempty-subdifferential set must agree
    with the projector's fixed-point set, and spot subdifferentials are
    checked against their interval values.
    """
    grid = GridSpec.line(-6.0, 8.0, step)
    pts = grid.points()
    mid = (pts >= 2.0 + step) & (pts <= 3.0 - step)
    if not mid.any():
        raise ValidationError(
            f"step {step:g} leaves no x in [2 + step, 3 - step], where the "
            "middle line is measured; the largest usable step is 0.5")
    gv = _exgeom_target(pts)
    tol = 2.0 * step

    kernel = build_grid_kernel(OmegaLipschitz(1.0, 1.0), grid, grid)
    adj = apply_adjoint(kernel, GridFunction(grid, gv))
    proj = apply_forward(kernel, adj).values

    err_left = float(np.max(np.abs(
        (proj - (-pts - 0.5))[pts <= -1.0]
    )))
    fixed_zone = ((pts >= -1.0) & (pts <= 2.0)) | (pts >= 3.0)
    err_fixed = float(np.max(np.abs((proj - gv)[fixed_zone])))
    err_mid = float(np.max(np.abs((proj - (3.0 - pts))[mid])))

    av = adj.values
    sub_nonempty = _subdiff_nonempty(pts, gv, av, tol)
    gap = np.abs(proj - gv)
    fixed_set = gap <= tol
    # points sitting within rounding of the tie threshold may land on
    # either side depending on the route; exclude them from the match
    ambiguous = np.abs(gap - tol) <= 1e-9
    dom_agrees = bool(np.all((sub_nonempty == fixed_set) | ambiguous))

    # the fixed-point set against the closed-form intervals, with slack
    # reflecting the tangency order at each boundary
    sq_slack = math.sqrt(2.0 * tol) + step
    lin_slack = tol + step
    inner = ((pts >= -1.0 + sq_slack) & (pts <= 2.0 - lin_slack)) | (pts >= 3.0)
    outer = ((pts >= -1.0 - sq_slack) & (pts <= 2.0 + lin_slack)) | \
        (pts >= 3.0 - lin_slack)
    intervals_ok = bool(np.all(fixed_set[inner]) and np.all(outer[fixed_set]))

    def spot_subdiff(x0: float):
        """The grid point i nearest x0 and the y whose adjoint value is
        within tol of the kernel's row at x_i minus g(x_i)."""
        i = int(np.argmin(np.abs(pts - x0)))
        return i, np.abs(av - (kernel.bbar_row(i) - gv[i])) <= tol

    spot = {}
    for x0, lo_y, hi_y in ((0.5, 0.5, 1.0), (3.0, 2.0, 3.0)):
        members = spot_subdiff(x0)[1]
        spot[x0] = bool(np.all(members[(pts >= lo_y) & (pts <= hi_y)]))
    i4, m4 = spot_subdiff(4.0)
    spot_4 = bool(m4[i4] and np.all(np.abs(pts[m4] - 4.0) <= 5 * step))

    worst = max(err_left, err_fixed, err_mid)
    passed = (
        worst <= tol and dom_agrees and intervals_ok
        and all(spot.values()) and spot_4
    )
    return LabResult(
        experiment="exgeom",
        details={
            "step": step,
            "err_reflected_line": err_left,
            "err_fixed_zone": err_fixed,
            "err_middle_line": err_mid,
            "subdiff_domain_matches_fixed_points": dom_agrees,
            "fixed_points_match_intervals": intervals_ok,
            "spot_subdiff_contains_interval": spot,
            "spot_subdiff_at_4_is_point": spot_4,
        },
        max_abs_error=worst,
        tolerance=tol,
        passed=bool(passed),
        curves={"x": pts, "g": gv, "projection": proj},
    )


def _subdiff_nonempty(pts: np.ndarray, gv: np.ndarray, av: np.ndarray,
                      tol: float) -> np.ndarray:
    """The nonempty-subdifferential set of the exgeom example: per grid
    point x, whether some grid point y has av(y) <= -|x - y| - g(x) + tol.

    The test is min_y (av(y) + |x - y|) + g(x) <= tol, and the minimum
    splits at x into a prefix minimum of av(y) - y plus x and a suffix
    minimum of av(y) + y minus x; x and y range over the same grid.
    """
    left = np.minimum.accumulate(av - pts) + pts
    right = np.minimum.accumulate((av + pts)[::-1])[::-1] - pts
    return np.minimum(left, right) + gv <= tol


# ----------------------------------------------------------------------
# registry for the command line


def _named_curve(name: str) -> Callable:
    curves = {
        "quartic": lambda y: y ** 4,
        "cos": np.cos,
        "half_square": lambda y: 0.5 * y * y,
        "abs": np.abs,
        "abs_half": lambda y: 0.5 * np.abs(y),
        "sin_half": lambda y: 0.5 * np.sin(y),
        "const": lambda y: np.zeros_like(y),
    }
    try:
        return curves[name]
    except KeyError:
        raise ValidationError(
            f"unknown curve {name!r}; choices: {sorted(curves)}"
        ) from None


#: Each experiment, and the flags it takes with the parameter each sets.
_RUNS = {
    "fenchel": (fenchel_experiment, {"step": "step"}),
    "quadratic": (quadratic_experiment, {"a": "a", "curve": "f_name"}),
    "lipschitz": (lipschitz_experiment, {"curve": "g_name", "step": "step"}),
    "weighted-power": (weighted_power_experiment, {}),
    "exgeom": (exgeom_experiment, {"step": "step"}),
}
EXPERIMENTS = tuple(_RUNS)


def run_experiment(name: str, **flags) -> LabResult:
    """Run one experiment with the flags given (None: not given); every
    other parameter keeps the experiment's default."""
    if name not in _RUNS:
        raise ValidationError(f"unknown experiment {name!r}; choices: {EXPERIMENTS}")
    experiment, takes = _RUNS[name]
    given = {k: v for k, v in flags.items() if v is not None}
    unknown = sorted(set(given) - set(takes))
    if unknown:
        raise ValidationError(f"lab {name} does not take --{', --'.join(unknown)}")
    return experiment(**{takes[k]: v for k, v in given.items()})
