import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from galois_solve.engine import FunctionOnSpace, apply_adjoint, apply_forward
from galois_solve.errors import NotLipschitzError, ValidationError
from galois_solve.kernel import GridSpec, OmegaLipschitz, build_grid_kernel
from galois_solve.lab import (
    EXPERIMENTS,
    GridFunction,
    _exgeom_target,
    _subdiff_nonempty,
    conjugate_with_flags,
    fenchel_conjugate,
    fenchel_experiment,
    lipschitz_experiment,
    lipschitz_fixed_point,
    quadratic_experiment,
    quadratic_reduction_check,
    run_experiment,
    weighted_power_domain,
    weighted_power_experiment,
    exgeom_experiment,
)


def grid_fn(lo, hi, step, fn):
    g = GridSpec.line(lo, hi, step)
    return GridFunction.from_callable(g, fn)


# -- the plain conjugate


def test_half_square_self_dual():
    f = grid_fn(-4, 4, 0.01, lambda y: 0.5 * y * y)
    x_grid = GridSpec.line(-2, 2, 0.01)
    g = fenchel_conjugate(f, x_grid)
    xs = x_grid.points()
    assert np.max(np.abs(g.samples - 0.5 * xs * xs)) <= 1e-3


def test_conjugate_of_top_is_bottom():
    f = GridFunction.constant(GridSpec.line(-1, 1, 0.5), math.inf)
    g = fenchel_conjugate(f, GridSpec.line(-1, 1, 0.5))
    assert np.all(np.isneginf(g.samples))


def test_abs_conjugate_is_window_indicator():
    f = grid_fn(-4, 4, 0.01, np.abs)
    x_grid = GridSpec.line(-2, 2, 0.01)
    g, _, boundary = conjugate_with_flags(f, x_grid)
    xs = x_grid.points()
    inside = np.abs(xs) <= 0.99
    assert np.max(np.abs(g.samples[inside])) <= 1e-3
    assert np.all(boundary[np.abs(xs) > 1.01])


def test_product_inequality_exact():
    f = grid_fn(-3, 3, 0.05, lambda y: y ** 4 - y)
    x_grid = GridSpec.line(-2, 2, 0.05)
    g = fenchel_conjugate(f, x_grid)
    xs, ys = x_grid.points(), f.grid.points()
    t = xs[:, None] * ys[None, :] - f.samples[None, :]
    assert (t - g.samples[:, None]).max() <= 0.0


def test_conjugate_convex_and_lipschitz():
    f = grid_fn(-4, 4, 0.01, lambda y: np.cos(3 * y))
    x_grid = GridSpec.line(-2, 2, 0.01)
    g = fenchel_conjugate(f, x_grid).samples
    second = g[2:] - 2 * g[1:-1] + g[:-2]
    assert second.min() >= -1e-9
    slopes = np.abs(np.diff(g)) / 0.01
    assert slopes.max() <= 4.0 + 1e-9  # bounded by max |y|


def test_biconjugate_below_and_tight_where_convex():
    step = 0.01
    y_grid = GridSpec.line(-4, 4, step)
    x_grid = GridSpec.line(-4, 4, step)
    f = GridFunction.from_callable(y_grid, lambda y: 0.5 * y * y)
    fstar = fenchel_conjugate(f, x_grid)
    fback = fenchel_conjugate(fstar, y_grid)
    assert np.all(fback.samples <= f.samples + 1e-12)
    inner = np.abs(y_grid.points()) <= 1.9
    # slope of the parabola stays under 2 on the window
    assert np.max(np.abs((fback.samples - f.samples)[inner])) <= 2 * step * 2


def test_fenchel_experiment_passes():
    r = fenchel_experiment()
    assert r.passed
    assert r.max_abs_error <= r.tolerance
    assert r.details["product_inequality_violation"] <= 0.0


# -- quadratic reduction


def test_quadratic_reduction_quartic_exact():
    f = grid_fn(-2, 2, 0.01, lambda y: y ** 4)
    r = quadratic_reduction_check(f, a=1.0)
    assert r.passed and r.max_abs_error == 0.0


def test_quadratic_reduction_cos_exact():
    f = grid_fn(-3, 3, 0.01, np.cos)
    r = quadratic_reduction_check(f, a=2.0)
    assert r.passed and r.max_abs_error == 0.0


def test_quadratic_reduction_top_function():
    g = GridSpec.line(-1, 1, 0.25)
    f = GridFunction.constant(g, math.inf)
    r = quadratic_reduction_check(f, a=1.0)
    assert r.passed and r.max_abs_error == 0.0
    assert np.all(np.isneginf(r.curves["kernel_route"]))
    assert np.all(np.isneginf(r.curves["conjugate_route"]))


def test_quadratic_experiment_dyadic_routes_bitwise_equal():
    r = quadratic_experiment()
    assert r.passed
    assert r.details["float_route_gap"] == 0.0


# -- modulus fixed point


def test_lipschitz_abs_half_exact():
    g = grid_fn(-5, 5, 0.01, lambda x: 0.5 * np.abs(x))
    r = lipschitz_fixed_point(g)
    assert r.passed
    assert r.details["err_adjoint_vs_neg_g"] == 0.0
    assert r.details["err_projector_vs_g"] == 0.0


def test_lipschitz_constant_function():
    g = GridFunction.constant(GridSpec.line(-5, 5, 0.1), 2.0)
    r = lipschitz_fixed_point(g)
    assert r.passed
    assert np.array_equal(r.curves["adjoint"], -r.curves["g"])


def test_lipschitz_sin_strict_unique():
    r = lipschitz_experiment("sin_half")
    assert r.passed
    assert r.details["strict"] is True
    assert r.details["solver_status"] == "unique"


def test_lipschitz_prescan_rejects_steep():
    g = grid_fn(-2, 2, 0.1, lambda x: 3.0 * x)
    with pytest.raises(NotLipschitzError) as exc:
        lipschitz_fixed_point(g)
    assert exc.value.pair is not None


# -- weighted-power domains


def test_weighted_power_threshold():
    r = weighted_power_experiment()
    assert r.passed
    assert r.details["certified_threshold"] == pytest.approx(2.5)
    assert abs(r.details["certified_threshold"] - 2.0) <= 0.5
    levels = {e["level"]: e for e in r.details["levels"]}
    assert not levels[1.0]["certified"]  # divergence masked by the window
    assert levels[1.0]["finite_on_grid"]
    assert levels[3.0]["certified"]


def test_weighted_power_bounded_below_all_certified():
    y_grid = GridSpec.line(-50, 50, 0.1)
    f = GridFunction.from_callable(y_grid, np.abs)
    r = weighted_power_domain(
        f, 1.0, GridSpec.line(-5, 5, 0.5), GridSpec.line(0.5, 4, 0.5)
    )
    assert r.passed
    assert all(e["certified"] for e in r.details["levels"])


def test_weighted_power_top_function():
    y_grid = GridSpec.line(-10, 10, 0.5)
    f = GridFunction.constant(y_grid, math.inf)
    r = weighted_power_domain(
        f, 1.0, GridSpec.line(-1, 1, 0.5), GridSpec.line(0.5, 2, 0.5)
    )
    assert all(not e["finite_on_grid"] for e in r.details["levels"])


# -- the geometric example (coarse grid here; the acceptance suite runs
#    the full resolution)


def test_exgeom_coarse():
    r = exgeom_experiment(step=0.01)
    assert r.passed
    assert r.max_abs_error <= r.tolerance
    assert r.details["subdiff_domain_matches_fixed_points"]
    assert r.details["fixed_points_match_intervals"]


def _blocked_subdiff_nonempty(pts, gv, av, tol, block=16):
    """The membership predicate av <= -|x - y| - g(x) + tol evaluated
    entry by entry, blocked over x."""
    out = np.empty(len(pts), dtype=bool)
    for lo in range(0, len(pts), block):
        hi = min(lo + block, len(pts))
        cand = np.subtract(pts[lo:hi, None], pts[None, :])
        np.abs(cand, out=cand)
        np.negative(cand, out=cand)
        cand -= gv[lo:hi, None]
        cand += tol
        out[lo:hi] = (av[None, :] <= cand).any(axis=1)
    return out


@pytest.mark.parametrize("step", [0.01, 0.005])
def test_exgeom_predicate_matches_blocked_oracle(step):
    grid = GridSpec.line(-6.0, 8.0, step)
    pts = grid.points()
    gv = _exgeom_target(pts)
    tol = 2.0 * step
    kernel = build_grid_kernel(OmegaLipschitz(1.0, 1.0), grid, grid)
    av = apply_adjoint(kernel, FunctionOnSpace(kernel.x_labels, gv)).values
    proj = apply_forward(kernel, FunctionOnSpace(kernel.y_labels, av)).values
    # the lab's ambiguity band: within rounding of the tie threshold
    clear = np.abs(np.abs(proj - gv) - tol) > 1e-9
    fast = _subdiff_nonempty(pts, gv, av, tol)
    oracle = _blocked_subdiff_nonempty(pts, gv, av, tol)
    assert np.array_equal(fast[clear], oracle[clear])
    assert fast.any() and not fast.all()


def test_subdiff_nonempty_on_random_data():
    # the exgeom data leaves one split unused, so draw data that needs both
    rng = np.random.default_rng(23)
    pts = GridSpec.line(-3.0, 3.0, 0.05).points()
    for _ in range(20):
        gv = rng.normal(size=len(pts))
        av = rng.normal(size=len(pts))
        tol = float(rng.uniform(0.0, 2.0))
        margin = (av[None, :] + np.abs(pts[:, None] - pts[None, :])).min(axis=1)
        clear = np.abs(margin + gv - tol) > 1e-9
        fast = _subdiff_nonempty(pts, gv, av, tol)
        oracle = _blocked_subdiff_nonempty(pts, gv, av, tol)
        assert np.array_equal(fast[clear], oracle[clear])


def test_run_labs_script_json(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_labs.py"
    spec = importlib.util.spec_from_file_location("run_labs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == sorted(EXPERIMENTS)
    assert all(r["pass"] for r in report.values())


def test_run_experiment_dispatch():
    assert run_experiment("quadratic").passed
    with pytest.raises(ValidationError):
        run_experiment("unknown-name")
