import importlib.util
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import use_cpus
from galois_solve import engine
from galois_solve.engine import FunctionOnSpace, apply_adjoint, apply_forward
from galois_solve.errors import NotLipschitzError, ValidationError
from galois_solve.kernel import GridSpec, Kernel, OmegaLipschitz, build_grid_kernel
import galois_solve.lab as lab
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


# -- grid functions


def test_a_grid_function_is_a_function_on_its_grid():
    grid = GridSpec.line(-1, 1, 0.5)
    vals = np.array([0.0, 1.0, math.inf, -math.inf, 2.0])
    g = GridFunction(grid, vals)
    assert isinstance(g, FunctionOnSpace) and g.space is grid
    assert not g.values.flags.writeable and g.values is not vals
    kernel = build_grid_kernel(OmegaLipschitz(1.0, 0.5), grid, grid)
    want = apply_forward(kernel, FunctionOnSpace(grid, vals)).values
    assert np.array_equal(apply_forward(kernel, g).values, want)
    with pytest.raises(ValidationError, match="GridSpec"):
        GridFunction(grid.labels(), vals)
    for bad in (vals[:4], np.full(5, math.nan)):  # FunctionOnSpace's checks
        with pytest.raises(ValidationError):
            GridFunction(grid, bad)


# -- the plain conjugate


def test_half_square_self_dual():
    f = grid_fn(-4, 4, 0.01, lambda y: 0.5 * y * y)
    x_grid = GridSpec.line(-2, 2, 0.01)
    g = fenchel_conjugate(f, x_grid)
    xs = x_grid.points()
    assert np.max(np.abs(g.values - 0.5 * xs * xs)) <= 1e-3


def test_conjugate_of_top_is_bottom():
    grid = GridSpec.line(-1, 1, 0.5)
    f = GridFunction(grid, np.full(grid.size(), math.inf))
    g = fenchel_conjugate(f, GridSpec.line(-1, 1, 0.5))
    assert np.all(np.isneginf(g.values))


def test_abs_conjugate_is_window_indicator():
    f = grid_fn(-4, 4, 0.01, np.abs)
    x_grid = GridSpec.line(-2, 2, 0.01)
    g, _, boundary = conjugate_with_flags(f, x_grid)
    xs = x_grid.points()
    inside = np.abs(xs) <= 0.99
    assert np.max(np.abs(g.values[inside])) <= 1e-3
    assert np.all(boundary[np.abs(xs) > 1.01])


def test_product_inequality_exact():
    f = grid_fn(-3, 3, 0.05, lambda y: y ** 4 - y)
    x_grid = GridSpec.line(-2, 2, 0.05)
    g = fenchel_conjugate(f, x_grid)
    xs, ys = x_grid.points(), f.space.points()
    t = xs[:, None] * ys[None, :] - f.values[None, :]
    assert (t - g.values[:, None]).max() <= 0.0


def test_conjugate_convex_and_lipschitz():
    f = grid_fn(-4, 4, 0.01, lambda y: np.cos(3 * y))
    x_grid = GridSpec.line(-2, 2, 0.01)
    g = fenchel_conjugate(f, x_grid).values
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
    assert np.all(fback.values <= f.values + 1e-12)
    inner = np.abs(y_grid.points()) <= 1.9
    # slope of the parabola stays under 2 on the window
    assert np.max(np.abs((fback.values - f.values)[inner])) <= 2 * step * 2


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
        want = _oracle_conjugate(y_grid.points(), f.values, x_grid.points())
        assert np.array_equal(g.values, want[0])
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
        want = _oracle_conjugate(ypts, f.values, xpts)[0]
        fin = np.isfinite(want)
        assert np.array_equal(g.values[~fin], want[~fin])
        f_max = np.abs(f.values[np.isfinite(f.values)]).max(initial=0.0)
        bound = 4 * np.finfo(float).eps * (
            np.abs(xpts).sum(axis=1) * np.abs(ypts).max() + f_max)
        assert np.all(np.abs(g.values[fin] - want[fin]) <= bound[fin])
        at = xpts[fin] @ ypts.T - f.values[None, :]
        picked = at[np.arange(fin.sum()), argmax[fin]]
        assert np.all(picked >= want[fin] - bound[fin])


def test_fenchel_experiment_passes():
    r = fenchel_experiment()
    assert r.passed
    assert r.max_abs_error <= r.tolerance


@pytest.mark.parametrize("step", [0.003, 0.007, 0.0123, 0.15, 0.3])
def test_fenchel_passes_when_the_y_grid_misses_zero(step):
    """The conjugates of |y| and y^2/2 are measured against those the
    grid attains: for |y| not 0 when the grid misses 0, and for y^2/2
    x^2/2 - d(x)^2/2, d(x) the distance from x to the nearest grid y,
    which is not 0 at steps 0.15 and 0.3, where 2/step is no integer."""
    assert np.abs(GridSpec.line(-4.0, 4.0, step).points()).min() > 1e-4
    r = fenchel_experiment(step)
    assert r.passed
    assert r.details["err_abs_indicator"] <= 1e-15
    assert r.details["err_half_square_selfdual"] <= 1e-15


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


def test_exact_route_gap_evaluates_where_the_maximisers_differ():
    rng = np.random.default_rng(3)
    xpts, ypts = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 9)
    fv, a = rng.uniform(-1, 1, 9), 0.75
    arg_a = np.array([0, 3, 5, 8, 2, 2])
    arg_b = np.array([0, 4, 5, 1, 2, 7])  # three pairs differ
    route = np.zeros(6)  # finite, as maxima are; only the argmaxes are read

    def exact(i, j):
        x, y = Fraction(float(xpts[i])), Fraction(float(ypts[j]))
        return x * y - Fraction(a) / 2 * y * y - Fraction(float(fv[j]))

    brute = max(abs(exact(i, int(p)) - exact(i, int(q)))
                for i, (p, q) in enumerate(zip(arg_a, arg_b)))
    assert brute > 0
    assert lab._exact_route_gap(xpts, ypts, fv, a, route, route, arg_a, arg_b) == \
        float(brute)
    # a pair still evaluated needs finite samples; an infinite route returns
    # before any evaluation
    fv[4] = math.inf
    with pytest.raises(ValueError, match="finite sample"):
        lab._exact_route_gap(xpts, ypts, fv, a, route, route, arg_a, arg_b)
    assert lab._exact_route_gap(xpts, ypts, fv, a, route, np.full(6, math.inf),
                                arg_a, arg_b) == math.inf


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
    # the points as the grid labels them, not as their floats print
    assert str(exc.value) == "|g(-2) - g(2)| exceeds omega by 8"


def _dense_modulus_check(pts, gv, a, q):
    """The whole table of |g(x) - g(y)| - omega(x - y) at once: its
    largest entry, the first pair attaining it, and strictness."""
    omega = a * np.abs(pts[:, None] - pts[None, :]) ** q
    viol = np.abs(gv[:, None] - gv[None, :]) - omega
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    strict = bool(np.all(viol[~np.eye(len(pts), dtype=bool)] < 0))
    return viol[i, j], (pts[i], pts[j]), strict


def _modulus_targets():
    rng = np.random.default_rng(31)
    grid = GridSpec.line(-2, 2, 0.1)
    pts = grid.points()
    yield grid, 3.0 * pts, 1.0, 1.0  # every corner pair ties for worst
    yield grid, np.abs(pts), 1.0, 1.0  # bound met with equality
    yield grid, 0.5 * np.sin(pts), 1.0, 1.0
    yield grid, np.full(len(pts), 2.0), 1.0, 0.5
    for k in range(8):
        steps = rng.choice([0.05, 0.1, -0.1, 0.2], len(pts))
        yield grid, np.cumsum(steps), (1.0, 2.0)[k % 2], (0.5, 1.0)[k // 2 % 2]


@pytest.mark.parametrize("entries", [None, 1, 100])
def test_blocked_modulus_check_matches_the_dense_table(monkeypatch, entries):
    if entries is not None:
        monkeypatch.setattr(lab, "_CHECK_ENTRIES", entries)
    for grid, gv, a, q in _modulus_targets():
        worst, pair, strict = _dense_modulus_check(grid.points(), gv, a, q)
        if worst > 0:
            with pytest.raises(NotLipschitzError) as exc:
                lipschitz_fixed_point(GridFunction(grid, gv), a, q)
            assert exc.value.pair == pair
        else:
            r = lipschitz_fixed_point(GridFunction(grid, gv), a, q)
            assert r.details["strict"] is strict


def _strict_by_ulps(rng, pts, gv, a):
    """The tight target gv made strict by about the rounding of the
    check: lowered by a few ulps of its scale more at every point."""
    scale = a * np.abs(pts).max() + np.abs(gv).max()
    return gv - np.finfo(float).eps * scale * rng.choice([0.25, 1, 4]) * np.arange(len(pts))


def test_line_certificate_never_certifies_what_the_blocked_check_refuses(monkeypatch):
    # where rounding decides strictness, the certificate must step aside
    rng = np.random.default_rng(47)
    cases = []
    for k in range(3000):
        n, a = int(rng.integers(2, 80)), (1 / 3, 0.5, 1.0, 3.0)[k % 4]
        step, lo = float(rng.uniform(0.01, 0.7)), float(rng.uniform(-6.0, 2.0))
        grid = GridSpec.line(lo, lo + step * (n - 0.5), step)
        pts = grid.points()
        tight = 10.0 ** int(rng.integers(-3, 4)) * rng.normal() + a * pts
        gv = _strict_by_ulps(rng, pts, tight, a)
        kernel = build_grid_kernel(OmegaLipschitz(a, 1.0), grid, grid)
        cases.append((kernel, gv, lab._modulus_check(kernel, gv)))
    monkeypatch.setattr(lab, "_strictly_below_line", lambda *args: False)
    for kernel, gv, got in cases:
        assert got == lab._modulus_check(kernel, gv)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1 / 3, 0.5, 1.0, 3.0]),
       st.booleans(), st.sampled_from(["strict", "tight", "near", "violating", "point"]),
       st.integers(-3, 3))
def test_line_certificate_matches_the_blocked_check(seed, a, dyadic, kind, exponent):
    rng = np.random.default_rng(seed)
    n = 1 if kind == "point" else int(rng.integers(2, 80))
    if dyadic:
        step, lo = 2.0 ** -int(rng.integers(0, 4)), float(rng.integers(-40, 5))
    else:
        step, lo = float(rng.uniform(0.01, 0.7)), float(rng.uniform(-6.0, 2.0))
    grid = GridSpec.line(lo, lo + step * (n - 0.5), step)
    pts = grid.points()
    offset = 10.0 ** exponent * rng.normal()
    if kind in ("tight", "near"):  # the bound met, somewhere or everywhere
        gv = offset + a * (pts if rng.random() < 0.5 else np.abs(pts - pts[n // 2]))
        if kind == "near":
            gv = _strict_by_ulps(rng, pts, gv, a)
    else:  # steps of a fraction of the modulus, some of them steeper when violating
        slope = rng.uniform(-0.9, 0.9, n)
        if kind == "violating":
            slope[rng.integers(1, n)] = rng.choice([-1.5, 1.5])
        gv = offset + a * np.cumsum(slope * np.diff(pts, prepend=pts[0]))
    if kind != "near":
        assert lab._strictly_below_line(pts, gv, a) == (kind in ("strict", "point"))
    k = build_grid_kernel(OmegaLipschitz(a, 1.0), grid, grid)
    got = lab._modulus_check(k, gv)
    with pytest.MonkeyPatch.context() as mp:  # the blocked check alone
        mp.setattr(lab, "_strictly_below_line", lambda *args: False)
        want = lab._modulus_check(k, gv)
    assert got == want and math.copysign(1, got[0]) == math.copysign(1, want[0])


def test_threaded_modulus_check_matches_the_serial_one(monkeypatch):
    """The check's blocks on four threads give the serial answer: where
    several blocks reach the worst excess, the first pair in row-major
    order wins across the threads' shares."""
    monkeypatch.setattr("galois_solve.kernel.DENSE_LIMIT", 0)  # threads at any size
    monkeypatch.setattr(lab, "_strictly_below_line", lambda *args: False)
    monkeypatch.setattr(lab, "_CHECK_ENTRIES", 64)  # a few rows per block
    opened = []

    class Counted(engine.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", Counted)
    rng = np.random.default_rng(53)
    for n in (21, 33):  # blocks of 3 rows and of 1
        grid = GridSpec.line(-4, -4 + 0.25 * (n - 0.5), 0.25)  # dyadic: exact excesses
        pts = grid.points()
        for k in range(30):
            a = (0.5, 1.0, 2.0)[k % 3]
            gv = rng.choice([0.0, 1.0, 3.0], n)
            for i in (rng.integers(0, n // 2 - 1), rng.integers(n // 2, n - 1)):
                gv[i:i + 2] = rng.permutation([0.0, 3.0])  # steepest steps, tied for the worst
            viol = np.abs(gv[:, None] - gv[None, :]) - a * np.abs(pts[:, None] - pts[None, :])
            worst_rows = np.flatnonzero((viol == viol.max()).any(axis=1))
            assert viol.max() > 0 and len(np.unique(worst_rows // (64 // n))) > 1
            kernel = build_grid_kernel(OmegaLipschitz(a, 1.0), grid, grid)
            use_cpus(monkeypatch, 1)
            serial = lab._modulus_check(kernel, gv)
            use_cpus(monkeypatch, 4)
            assert lab._modulus_check(kernel, gv) == serial
    assert len(opened) == 60


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
    # the text table: a header, then one PASS row per experiment
    assert script.main([]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["experiment", "result", "max", "error", "tolerance", "time"]
    assert [r.split()[:2] for r in rows] == [[name, "PASS"] for name in EXPERIMENTS]


def test_run_experiment_dispatch():
    assert run_experiment("quadratic").passed
    with pytest.raises(ValidationError):
        run_experiment("unknown-name")


def test_labs_read_no_labels(monkeypatch):
    """Every experiment runs on grid positions: no grid label is formatted."""
    def refuse(grid):
        raise AssertionError(f"a lab read the labels of {grid}")

    monkeypatch.setattr(GridSpec, "labels", refuse)
    for name in EXPERIMENTS:
        assert run_experiment(name).passed, name


def test_labs_read_every_kernel_in_blocks(monkeypatch):
    """No experiment reads all rows of a kernel taller than one block of
    the reduction: memory grows with the blocks, not with the table."""
    bbar_row = Kernel.bbar_row
    whole = []

    def read(kernel, i):
        out = bbar_row(kernel, i)
        if out.ndim == 2 and len(out) == kernel.shape[0] > engine._BLOCK:
            whole.append(kernel.shape)
        return out

    monkeypatch.setattr(Kernel, "bbar_row", read)
    for name in EXPERIMENTS:
        assert run_experiment(name).passed, name
        assert not whole, (name, whole)
    assert fenchel_experiment(step=0.003).passed
    assert not whole, whole


def test_fenchel_lab_reads_a_small_share_of_its_pairing(monkeypatch):
    """The pairing <x, y> is supermodular on its lines, so each pass of
    the fenchel lab reads two boundary rows per block of rows and the
    columns those rows bound, not the whole table."""
    bbar_row, sup_pass = Kernel.bbar_row, lab.sup_pass
    read, nominal = [], []

    def count_read(kernel, i):
        out = bbar_row(kernel, i)
        read.append(out.size)
        return out

    def count_pass(kernel, lam, tol=None):
        nominal.append(kernel.shape[0] * kernel.shape[1])
        return sup_pass(kernel, lam, tol)

    monkeypatch.setattr(Kernel, "bbar_row", count_read)
    monkeypatch.setattr(lab, "sup_pass", count_pass)
    assert fenchel_experiment(step=1e-3).passed
    assert nominal and sum(read) < 0.1 * sum(nominal)
