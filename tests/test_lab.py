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
    grid = GridSpec.line(-1, 1, 0.5)
    f = GridFunction(grid, np.full(grid.size(), math.inf))
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


# the lab's own blocked reduction before it went through the engine,
# kept as the oracle of the engine-routed conjugate


def _oracle_conjugate(ypts, fvals, xpts, block=16):
    """max_y (<x, y> - f(y)) with -inf absorbing, plus per-x argmax and a
    flag for maxima attained on the y-window edge."""
    n_out = len(xpts)
    gvals = np.empty(n_out)
    argmax = np.empty(n_out, dtype=int)
    boundary = np.empty(n_out, dtype=bool)
    if ypts.ndim == 1:
        edge = np.zeros(len(ypts), dtype=bool)
        edge[0] = edge[-1] = True
    else:
        edge = ((ypts == ypts.min(axis=0)) | (ypts == ypts.max(axis=0))).any(axis=1)
    for lo in range(0, n_out, block):
        hi = min(lo + block, n_out)
        xb = xpts[lo:hi]
        t = xb[:, None] * ypts[None, :] if ypts.ndim == 1 else xb @ ypts.T
        t -= np.where(np.isfinite(fvals), fvals, 0.0)
        t[:, np.isposinf(fvals)] = -np.inf
        t[:, np.isneginf(fvals)] = np.inf
        m = t.max(axis=1)
        with np.errstate(invalid="ignore"):
            tie = t == m[:, None]
        tie[np.isneginf(m)] = True
        gvals[lo:hi] = m
        argmax[lo:hi] = t.argmax(axis=1)
        boundary[lo:hi] = (tie & edge[None, :]).any(axis=1)
    return gvals, argmax, boundary


def _random_samples(rng, n):
    """Samples with ties, both infinities, and sometimes +inf throughout."""
    kind = rng.integers(4)
    if kind == 0:
        return np.full(n, np.inf)
    vals = rng.integers(-3, 4, n).astype(float) if kind == 1 else rng.normal(size=n)
    vals[rng.random(n) < 0.2] = np.inf
    if kind < 3:
        vals[rng.random(n) < 0.1] = -np.inf
    return vals


def _line_cases():
    # a flat-bottomed bowl: ties of every size, some on the window edge
    # (|x| = 4) and some inside it (x = 0), next to single maxima
    y_grid = GridSpec.line(-2.0, 2.0, 0.25)
    bowl = 4 * np.maximum(np.abs(y_grid.points()) - 0.5, 0.0)
    yield y_grid, GridSpec.line(-6.0, 6.0, 0.5), bowl
    rng = np.random.default_rng(5)
    for _ in range(60):
        lo = float(rng.integers(-4, 0))
        step = float(rng.choice([0.25, 0.1, 1 / 3]))
        y_grid = GridSpec.line(lo, lo + float(rng.integers(1, 5)), step)
        x_grid = GridSpec.line(-2.0, 2.0, float(rng.choice([0.5, 0.3])))
        yield y_grid, x_grid, _random_samples(rng, y_grid.size())


def test_conjugate_matches_oracle_bitwise_on_lines():
    for y_grid, x_grid, samples in _line_cases():
        f = GridFunction(y_grid, samples)
        g, argmax, boundary = conjugate_with_flags(f, x_grid)
        want = _oracle_conjugate(y_grid.points(), f.samples, x_grid.points())
        assert np.array_equal(g.samples, want[0])
        assert np.array_equal(argmax, want[1])
        assert np.array_equal(boundary, want[2])


def test_conjugate_matches_oracle_on_planes():
    # 2-D pairings are a stacked matmul in the kernel and `@` in the
    # oracle, which may round differently: values agree within
    # 4 eps (|x|_1 max|y| + max finite |f|), and each argmax attains the
    # oracle's maximum within that bound.  Boundary flags hang on exact
    # ties, so they are compared on lines only.
    rng = np.random.default_rng(9)
    y_grid = GridSpec(((-1.0, 1.0, 0.1), (-1.5, 0.5, 0.3)))
    x_grid = GridSpec(((-2.0, 2.0, 0.7), (-1.0, 1.0, 0.3)))
    ypts, xpts = y_grid.points(), x_grid.points()
    for _ in range(20):
        f = GridFunction(y_grid, _random_samples(rng, y_grid.size()))
        g, argmax, _ = conjugate_with_flags(f, x_grid)
        want = _oracle_conjugate(ypts, f.samples, xpts)[0]
        fin = np.isfinite(want)
        assert np.array_equal(g.samples[~fin], want[~fin])
        f_max = np.abs(f.samples[np.isfinite(f.samples)]).max(initial=0.0)
        bound = 4 * np.finfo(float).eps * (
            np.abs(xpts).sum(axis=1) * np.abs(ypts).max() + f_max)
        assert np.all(np.abs(g.samples[fin] - want[fin]) <= bound[fin])
        at = xpts[fin] @ ypts.T - f.samples[None, :]
        picked = at[np.arange(fin.sum()), argmax[fin]]
        assert np.all(picked >= want[fin] - bound[fin])


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
    f = GridFunction(g, np.full(g.size(), math.inf))
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
    grid = GridSpec.line(-5, 5, 0.1)
    g = GridFunction(grid, np.full(grid.size(), 2.0))
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
    f = GridFunction(y_grid, np.full(y_grid.size(), math.inf))
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
