import math
import os
import random
import signal
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILY_GRIDS,
    FAMILY_IDS,
    approx_eq,
    constant,
    dirac,
    random_function,
    random_moreau_kernel,
    stored_and_generated,
    use_cpus,
)
import galois_solve.engine as engine
import galois_solve.kernel as kernel_mod
from galois_solve.engine import (
    FunctionOnSpace,
    apply_adjoint,
    apply_forward,
    projector,
    slice_table,
    subdiff_inverse,
    sup_pass,
)
from galois_solve.errors import ValidationError
from galois_solve.extreal import DEFAULT_TOL
from galois_solve.kernel import (
    CouplingTable,
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    build_grid_kernel,
    build_moreau,
    build_table,
)
from galois_solve.scalar import Affine, Off, SignedPower, TabulatedDecreasing

SQRT6 = math.sqrt(6.0)


def fos(labels, *vals):
    return FunctionOnSpace(tuple(labels), np.array(vals, dtype=float))


def forward_ties(kernel, f, tol=DEFAULT_TOL):
    """For each y, the x whose forward supremum at f is attained at y
    within ``tol``: the forward tie family of ``sup_pass``, by y."""
    by_x = sup_pass(kernel, f.values, tol)[1].sets
    return {y: frozenset(x for x, ys in by_x.items() if y in ys)
            for y in kernel.y_labels}


# -- the worked 2x3 example


def test_forward_on_alternate_solution(demo_kernel):
    f = fos(demo_kernel.y_labels, math.inf, math.inf, -6)
    g = apply_forward(demo_kernel, f)
    assert np.allclose(g.values, [8, 6])


def test_forward_of_top_is_bottom(demo_kernel):
    f = constant(demo_kernel.y_labels, math.inf)
    g = apply_forward(demo_kernel, f)
    assert np.all(np.isneginf(g.values))


def test_dirac_column(demo_kernel):
    f = dirac(demo_kernel.y_labels, "y2", 0)
    g = apply_forward(demo_kernel, f)
    assert np.allclose(g.values, [4, 3])


def test_adjoint_on_demo_target(demo_kernel, demo_g):
    out = apply_adjoint(demo_kernel, demo_g)
    assert np.allclose(out.values, [-SQRT6, -4 / 3, -6], atol=1e-12)


def test_adjoint_on_bad_target(demo_kernel, demo_g_bad):
    out = apply_adjoint(demo_kernel, demo_g_bad)
    assert np.allclose(out.values, [math.sqrt(3), 6, 3], atol=1e-12)


def test_adjoint_of_top_is_bottom(demo_kernel):
    g = constant(demo_kernel.x_labels, math.inf)
    out = apply_adjoint(demo_kernel, g)
    assert np.all(np.isneginf(out.values))


def test_projector_fixes_solvable_target(demo_kernel, demo_g):
    pg = projector(demo_kernel, demo_g)
    assert np.allclose(pg.values, demo_g.values)


def test_projector_below_unsolvable_target(demo_kernel, demo_g_bad):
    pg = projector(demo_kernel, demo_g_bad)
    # recomputed by hand from the adjoint values (sqrt 3, 6, 3)
    assert np.allclose(pg.values, [-1, -3])
    assert pg.values[0] < demo_g_bad.values[0]
    assert pg.leq(demo_g_bad, 1e-12)


def test_subdiff_inverse_demo(demo_kernel, demo_g):
    _, inv = subdiff_inverse(demo_kernel, demo_g)
    assert inv.sets == {
        "y1": frozenset({"x2"}),
        "y2": frozenset({"x1"}),
        "y3": frozenset({"x1", "x2"}),
    }


def test_subdiff_inverse_demo_bad(demo_kernel, demo_g_bad):
    _, inv = subdiff_inverse(demo_kernel, demo_g_bad)
    assert all(s == frozenset({"x2"}) for s in inv.sets.values())


def test_subdiff_inverse_of_top(demo_kernel):
    g = constant(demo_kernel.x_labels, math.inf)
    _, inv = subdiff_inverse(demo_kernel, g)
    for j, y in enumerate(demo_kernel.y_labels):
        expected = {demo_kernel.x_labels[i] for i in demo_kernel.support_col(j)}
        assert inv.sets[y] == expected


def test_subdiff_inverts_subdiff_inverse(demo_kernel, demo_g):
    f = apply_adjoint(demo_kernel, demo_g)
    _, inv = subdiff_inverse(demo_kernel, demo_g)
    assert forward_ties(demo_kernel, f) == inv.sets


def test_subdiff_of_top(demo_kernel):
    f = constant(demo_kernel.y_labels, math.inf)
    ties = forward_ties(demo_kernel, f)
    for j, y in enumerate(demo_kernel.y_labels):
        expected = {demo_kernel.x_labels[i] for i in demo_kernel.support_col(j)}
        assert ties[y] == expected


def test_subdiff_on_conjugate_grid():
    grid = GridSpec.line(-2, 2, 0.01)
    k = build_grid_kernel(FenchelDot(), grid, grid)
    pts = grid.points()
    f = FunctionOnSpace(grid.labels(), 0.5 * pts * pts)
    ties = forward_ties(k, f)
    centres = []
    for j, y in enumerate(grid.labels()):
        members = sorted(float(m) for m in ties[y])
        # gradient map: the maximiser sits at (or next to) the slope point
        oracle = pts[np.argmax(pts[j] * pts - 0.5 * pts * pts)]
        assert members, y
        assert min(abs(m - oracle) for m in members) <= 0.01 + 1e-9
        centres.append(0.5 * (members[0] + members[-1]))
    assert all(a <= b + 1e-9 for a, b in zip(centres, centres[1:]))


def test_label_mismatch_raises(demo_kernel, demo_g):
    with pytest.raises(ValidationError):
        apply_forward(demo_kernel, demo_g)  # g lives on the x side


def test_from_mapping_lists_unknown_keys_of_any_type():
    # keys that do not compare with each other are listed in mapping order
    with pytest.raises(ValidationError, match=r"unknown labels: \[1, 'b'\]"):
        FunctionOnSpace.from_mapping(("a",), {1: 2, "b": 3, "a": 0})


# -- algebraic laws on random kernels (small copies; the acceptance
#    suite runs the full 1000-instance battery)


def test_galois_laws_random():
    rng = random.Random(11)
    for _ in range(60):
        k = random_moreau_kernel(rng, max_side=5)
        f = random_function(rng, k.y_labels)
        g = random_function(rng, k.x_labels)
        bf = apply_forward(k, f)
        bstar_bf = apply_adjoint(k, bf)
        assert approx_eq(apply_forward(k, bstar_bf), bf)
        ag = apply_adjoint(k, g)
        assert approx_eq(apply_adjoint(k, projector(k, g)), ag)
        # adjunction: g above the transform of f iff f above the adjoint of g
        assert bf.leq(g, 1e-12) == ag.leq(f, 1e-12)


def test_antitone_and_sup_morphism():
    rng = random.Random(13)
    for _ in range(60):
        k = random_moreau_kernel(rng, max_side=5)
        f1 = random_function(rng, k.y_labels)
        f2 = random_function(rng, k.y_labels)
        lo = FunctionOnSpace(k.y_labels, np.minimum(f1.values, f2.values))
        hi = FunctionOnSpace(k.y_labels, np.maximum(f1.values, f2.values))
        b_lo, b_hi = apply_forward(k, lo), apply_forward(k, hi)
        b1, b2 = apply_forward(k, f1), apply_forward(k, f2)
        assert b_hi.leq(b1) and b_hi.leq(b2)
        assert approx_eq(b_lo, FunctionOnSpace(k.x_labels,
                                               np.maximum(b1.values, b2.values)))


def test_degenerate_laws():
    rng = random.Random(17)
    for _ in range(30):
        k = random_moreau_kernel(rng, max_side=5)
        top_g = constant(k.x_labels, math.inf)
        assert np.all(np.isneginf(apply_adjoint(k, top_g).values))
        bot_g = constant(k.x_labels, -math.inf)
        a = apply_adjoint(k, bot_g)
        assert np.all(np.isposinf(a.values))
        assert np.all(np.isneginf(apply_forward(k, a).values))


def test_dirac_identity_random():
    rng = random.Random(19)
    for _ in range(20):
        k = random_moreau_kernel(rng, max_side=4)
        for j, y in enumerate(k.y_labels):
            for s in (-1.0, 0.0, 1.0, math.inf, -math.inf):
                d = dirac(k.y_labels, y, s)
                got = apply_forward(k, d)
                want = [k.entry(i, j).eval_float(s) for i in range(k.shape[0])]
                assert np.array_equal(got.values, want)


def test_threaded_pass_gives_same_answer(monkeypatch):
    grid = GridSpec.line(-2, 2, 0.005)
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)  # threads at any size
    k = build_grid_kernel(FenchelDot(), grid, grid)
    pts = grid.points()
    f = FunctionOnSpace(grid.labels(), 0.5 * pts * pts)
    g = FunctionOnSpace(grid.labels(), np.abs(pts))
    use_cpus(monkeypatch, 2)
    threaded = apply_forward(k, f), subdiff_inverse(k, g)
    use_cpus(monkeypatch, 1)
    serial = apply_forward(k, f), subdiff_inverse(k, g)
    assert np.array_equal(threaded[0].values, serial[0].values)
    assert _same_map(threaded[1], serial[1])


class _RecordingPool:
    """Stands in for the shared pool: runs each task at once, in the
    calling thread, and counts them."""

    def __init__(self):
        self.tasks = 0

    def submit(self, fn, *args):
        self.tasks += 1
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("n_out", [3 * engine._BLOCK, 5 * engine._BLOCK + 1])
def test_thread_count_is_capped_at_cpus_and_blocks(monkeypatch, n_out):
    rng = np.random.default_rng(n_out)
    bbar = rng.integers(-3, 3, (4, n_out)).astype(float)
    moreau = build_moreau(bbar.tolist())
    forms = build_table([[Affine(v, 2.0) for v in row] for row in bbar.tolist()])
    lazy = build_grid_kernel(FenchelDot(), GridSpec.line(0, 3, 1),
                             GridSpec.line(0, n_out - 1, 1))
    kernels = (moreau, forms, lazy)
    gv = rng.normal(size=4)
    use_cpus(monkeypatch, 1)
    serial = [apply_adjoint(k, FunctionOnSpace(k.x_labels, gv)) for k in kernels]
    pool = _RecordingPool()
    monkeypatch.setattr(engine, "_shared_pool", lambda: pool)
    use_cpus(monkeypatch, 4)
    blocks = -(-n_out // engine._BLOCK)
    # every table, stored or generated, runs on min(CPUs, blocks) threads
    # above DENSE_LIMIT entries, read at the call, and serially at or
    # below it; the calling thread is one of them and the pool the rest
    for limit in (4 * n_out - 1, 4 * n_out):
        monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", limit)
        threads = min(4, blocks) if 4 * n_out > limit else 1
        for k, want in zip(kernels, serial):
            pool.tasks = 0
            pooled = apply_adjoint(k, FunctionOnSpace(k.x_labels, gv))
            assert pool.tasks == threads - 1
            assert np.array_equal(pooled.values, want.values)


def _pooled_case(monkeypatch):
    """A generated table of 4 blocks each way, on two threads at any size."""
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)
    use_cpus(monkeypatch, 2)
    grid = GridSpec.line(-2, 2, 0.005)
    return build_grid_kernel(FenchelDot(), grid, grid).dual, np.abs(grid.points())


def test_passes_share_one_pool_and_survive_a_failing_span(monkeypatch):
    kernel, g = _pooled_case(monkeypatch)
    top, family = sup_pass(kernel, g, 1e-9)
    threads = threading.active_count()
    for _ in range(5):  # no pass after the first starts a thread
        again = sup_pass(kernel, g, 1e-9)
        assert threading.active_count() == threads
    assert np.array_equal(again[0], top) and again[1].sets == family.sets

    blocks = engine._blocks
    ran_on = []

    def failing(kernel, lam):
        block = blocks(kernel, lam)

        def fail(lo, hi, out=None):
            if lo == engine._BLOCK:  # the second span, which the pool runs
                ran_on.append(threading.current_thread())
                raise KeyError("a pooled span")
            return block(lo, hi, out)
        return fail

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_blocks", failing)
        with pytest.raises(KeyError, match="a pooled span"):
            sup_pass(kernel, g, 1e-9)
    assert ran_on and ran_on[0] is not threading.current_thread()
    after = sup_pass(kernel, g, 1e-9)
    assert np.array_equal(after[0], top) and after[1].sets == family.sets
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_pooled_passes(monkeypatch):
    """A child forked after a pooled pass has none of the pool's threads;
    its own pooled pass must not wait on them."""
    kernel, g = _pooled_case(monkeypatch)
    want = sup_pass(kernel, g)[0]
    pid = os.fork()
    if pid == 0:  # the child never returns to the test runner
        code = 1
        try:
            signal.alarm(10)  # a hung pass ends the child by SIGALRM
            code = 0 if np.array_equal(sup_pass(kernel, g)[0], want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


# -- generated grid tables and their stored oracles agree, bit for bit

def _same_map(a, b):
    return a[1].sets == b[1].sets and np.array_equal(a[0], b[0])


@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_lazy_and_dense_transforms_agree(family, x_grid, y_grid):
    dense, lazy = stored_and_generated(family, x_grid, y_grid)
    rng = np.random.default_rng(5)
    g = FunctionOnSpace(dense.x_labels, rng.normal(size=dense.shape[0]))
    f = FunctionOnSpace(dense.y_labels, rng.normal(size=dense.shape[1]))
    assert np.array_equal(apply_forward(lazy, f).values,
                          apply_forward(dense, f).values)
    assert np.array_equal(apply_adjoint(lazy, g).values,
                          apply_adjoint(dense, g).values)
    inv = subdiff_inverse(dense, g)
    assert _same_map(subdiff_inverse(lazy, g), inv)
    assert np.array_equal(inv[0], apply_adjoint(dense, g).values)


# -- the O(n + m) envelope path for 1-D Lipschitz kernels, against the
#    blocked reduction over the same table without the structure


def _random_line(rng, dyadic):
    n = int(rng.integers(1, 40))
    if dyadic:
        step = 2.0 ** -int(rng.integers(0, 4))
        lo = step * int(rng.integers(-30, 5))
    else:
        step = float(rng.uniform(0.01, 0.7))
        lo = float(rng.uniform(-6.0, 2.0))
    return GridSpec.line(lo, lo + step * (n - 0.5), step)


def _random_lam(rng, n, kind):
    if kind == "normal":
        return rng.normal(scale=3.0, size=n)
    lam = rng.integers(-6, 7, size=n).astype(float)
    if kind == "inf":
        lam[rng.random(n) < 0.2] = math.inf
        lam[rng.random(n) < 0.1] = -math.inf
    return lam


@pytest.mark.parametrize("a", [1.0, 0.5, 2.0, 1.0 / 3.0])
def test_envelope_path_matches_blocked_reduction(a):
    rng = np.random.default_rng(int(a * 96) + 1)
    eps = np.finfo(float).eps
    for case in range(120):
        dyadic = case % 2 == 0
        x_grid = _random_line(rng, dyadic)
        y_grid = x_grid if case % 4 < 2 else _random_line(rng, dyadic)
        k = build_grid_kernel(OmegaLipschitz(a, 1.0), x_grid, y_grid)
        assert k.lipschitz_line is not None
        table = np.array(k.bbar_row(slice(None)))
        oracle = Kernel(k.x_labels, k.y_labels, CouplingTable.stored(table))
        assert oracle.lipschitz_line is None
        for kind in ("integer", "normal", "inf"):
            # the adjoint is the forward map of the dual
            for fk, dk, rows in ((k, oracle, table), (k.dual, oracle.dual, table.T)):
                f = FunctionOnSpace(fk.y_labels, _random_lam(rng, rows.shape[1], kind))
                lam = f.values
                fast = apply_forward(fk, f).values
                dense = apply_forward(dk, f).values
                vals = rows - lam[None, :]
                assert np.all((vals == fast[:, None]).any(axis=1))
                assert np.all(fast <= dense)
                fin = np.isfinite(dense)
                assert np.array_equal(fast[~fin], dense[~fin])
                finite_lam = lam[np.isfinite(lam)]
                scale = a * (np.abs(x_grid.points()).max()
                             + np.abs(y_grid.points()).max())
                if finite_lam.size:
                    scale += np.abs(finite_lam).max()
                assert np.all(fast[fin] >= dense[fin] - 8 * eps * scale)
                if dyadic and kind != "normal" and a != 1.0 / 3.0:
                    # every operation is exact on these grids
                    assert np.array_equal(fast, dense)


@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_envelope_path_selection(monkeypatch, family, x_grid, y_grid):
    dense, lazy = stored_and_generated(family, x_grid, y_grid)
    structured = (isinstance(family, OmegaLipschitz) and family.q == 1
                  and x_grid.ndim == 1)
    for k in (dense, lazy):
        assert (k.lipschitz_line is not None) == structured

    def refuse(*args):
        raise AssertionError("took the envelope path")

    monkeypatch.setattr(engine, "_envelope_pass", refuse)
    rng = np.random.default_rng(3)
    for k in (dense, lazy):
        g = FunctionOnSpace(k.x_labels, rng.normal(size=k.shape[0]))
        f = FunctionOnSpace(k.y_labels, rng.normal(size=k.shape[1]))
        # tie sets always come from the blocked reduction
        subdiff_inverse(k, g)
        sup_pass(k, f.values, DEFAULT_TOL)
        if k.lipschitz_line is None:
            apply_forward(k, f)
            apply_adjoint(k, g)
        else:
            with pytest.raises(AssertionError, match="envelope"):
                apply_forward(k, f)


# -- the block evaluator of tables of scalar forms, against the forms

finite = st.floats(min_value=-40, max_value=40, allow_nan=False)
exponent = st.floats(min_value=0.25, max_value=4)
tabulated = st.builds(
    lambda s0, t0, steps: TabulatedDecreasing(tuple(
        (s0 + sum(d for d, _ in steps[:k]), t0 - sum(e for _, e in steps[:k]))
        for k in range(len(steps) + 1))),
    finite, finite,
    st.lists(st.tuples(st.floats(0.125, 4), st.floats(0.125, 4)),
             min_size=1, max_size=4),
)


def _special_inputs(forms):
    """Inputs where the forms change regime: both infinities, signed
    zeros, tabulated breakpoints and signed-power shifts."""
    pts = [math.inf, -math.inf, 0.0, -0.0]
    for e in forms:
        if isinstance(e, TabulatedDecreasing):
            pts += [s for s, _ in e.points]
        elif isinstance(e, SignedPower):
            pts.append(e.shift)
    return pts


def _inputs(draw, columns):
    return np.array([draw(st.one_of(st.sampled_from(_special_inputs(col)), finite))
                     for col in columns])


@st.composite
def form_tables(draw):
    """A table of all four kinds of forms with its support repaired, an
    input on each side and a block size."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    slope = st.just(1.0) if draw(st.booleans()) else st.floats(0.125, 8)
    form = st.one_of(st.just(Off()), st.builds(Affine, finite, slope),
                     st.builds(SignedPower, finite, exponent, finite), tabulated)
    rows = [[draw(form) for _ in range(ny)] for _ in range(nx)]
    for i in range(nx):
        rows[i][draw(st.integers(0, ny - 1))] = draw(tabulated)
    for j in range(ny):
        rows[draw(st.integers(0, nx - 1))][j] = draw(st.builds(Affine, finite, slope))
    lam_y = _inputs(draw, [[r[j] for r in rows] for j in range(ny)])
    lam_x = _inputs(draw, [[e.adjoint() for e in r] for r in rows])
    return rows, lam_y, lam_x, draw(st.integers(1, 4))


def _evaluated_blocks(kernel, lam, size):
    block = engine._blocks(kernel, lam)
    n_out = kernel.shape[0]
    return np.vstack([block(lo, min(lo + size, n_out))
                      for lo in range(0, n_out, size)])


@settings(max_examples=80, deadline=None)
@given(form_tables())
def test_table_blocks_match_scalar_forms_bitwise(case):
    rows, lam, lam_x, size = case
    k = build_table(rows)
    nx, ny = k.shape
    assert all(k.entry(i, j) == rows[i][j] for i in range(nx) for j in range(ny))
    forward = [[e.eval_float(lam[j]) for j, e in enumerate(r)] for r in rows]
    adjoint = [[rows[i][j].adjoint().eval_float(lam_x[i]) for i in range(nx)]
               for j in range(ny)]
    got = _evaluated_blocks(k, lam, size)
    assert got.tobytes() == np.array(forward).tobytes()
    got = _evaluated_blocks(k.dual, lam_x, size)
    assert got.tobytes() == np.array(adjoint).tobytes()
    # the whole table, as the text report prints it, against the
    # kernel's own adjoint slices
    oracle = [[k.adjoint_entry(j, i).eval_float(lam_x[i]) for i in range(nx)]
              for j in range(ny)]
    assert np.array(oracle).tobytes() == np.array(adjoint).tobytes()
    assert slice_table(k.dual, lam_x).tobytes() == np.array(adjoint).tobytes()
    assert slice_table(k, lam).tobytes() == np.array(forward).tobytes()


def test_table_blocks_call_no_scalar_form(monkeypatch):
    """Passes over a table of scalar forms never evaluate a slice object."""
    rng = np.random.default_rng(3)
    rows = [[[Off(), Affine(1.0, 2.0), SignedPower(0.5, 1.5, 0.25),
              TabulatedDecreasing(((0.0, 1.0), (1.0, -1.0), (2.0, -4.0)))][k]
             for k in rng.integers(0, 4, 7)] for _ in range(6)]
    for r in rows:
        r[0] = Affine(0.0, 1.0)
    rows[0] = [Affine(0.0, 0.5)] * 7
    kernel = build_table(rows)
    g = FunctionOnSpace(kernel.x_labels, rng.normal(size=6))
    want = subdiff_inverse(kernel, g)[1].sets

    def refuse(*args, **kwargs):
        raise AssertionError("per-entry slice evaluated")

    for cls in (Affine, SignedPower, TabulatedDecreasing):
        monkeypatch.setattr(cls, "eval_float", refuse)
    monkeypatch.setattr(Kernel, "entry", refuse)
    monkeypatch.setattr(Kernel, "adjoint_entry", refuse)
    assert subdiff_inverse(kernel, g)[1].sets == want
    apply_forward(kernel, apply_adjoint(kernel, g))


# -- the one tie rule of sup_pass, against the scalar forms entry by entry


def _brute_ties(kernel, lam, tol):
    """Per x, the supremum of its slices at ``lam`` and the y with
    ``value >= sup - tol``, or the support when the supremum is -inf,
    from the kernel's scalar forms one by one."""
    n_out, n_in = kernel.shape
    tops, ties = [], []
    for o in range(n_out):
        forms = [kernel.entry(o, k) for k in range(n_in)]
        vals = [e.eval_float(lam[k]) for k, e in enumerate(forms)]
        top = max(vals)
        if top == -math.inf:
            ties.append({k for k, e in enumerate(forms) if not isinstance(e, Off)})
        else:
            ties.append({k for k, v in enumerate(vals) if v >= top - tol})
        tops.append(top)
    return np.array(tops), ties


@st.composite
def tie_cases(draw):
    """A random moreau kernel with -inf entries, or a table of all four
    forms, with an input on each side that may hold both infinities."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        k = random_moreau_kernel(rng)
        # integer inputs moved by fractions of 1e-9, so that near-ties
        # fall on both sides of the tolerance
        f, g = (random_function(rng, labels) for labels in (k.y_labels, k.x_labels))
        return k, *(FunctionOnSpace(h.labels, h.values + [
            rng.choice((0.0, 5e-10, 1e-9, 1.5e-9)) for _ in h.labels]) for h in (f, g))
    rows, lam_y, lam_x, _ = draw(form_tables())
    k = build_table(rows)
    return k, FunctionOnSpace(k.y_labels, lam_y), FunctionOnSpace(k.x_labels, lam_x)


@settings(max_examples=100, deadline=None)
@given(tie_cases())
def test_one_tie_rule_matches_the_scalar_forms(case):
    kernel, f, g = case
    x, y = kernel.x_labels, kernel.y_labels
    for tol in (0.0, 1e-9):
        top, family = subdiff_inverse(kernel, g, tol)
        want_top, ties = _brute_ties(kernel.dual, g.values, tol)
        assert np.array_equal(top, want_top)
        assert family.sets == {y[j]: frozenset(x[i] for i in t)
                               for j, t in enumerate(ties)}
        _, ties = _brute_ties(kernel, f.values, tol)
        assert forward_ties(kernel, f, tol) == {
            y[j]: frozenset(x[i] for i, t in enumerate(ties) if j in t)
            for j in range(len(y))}


# -- sup_pass against a plain numpy reduction of the whole table


def _coupling_case(rng, nx, ny):
    """A stored integer coupling table with -inf entries, every row and
    column repaired to keep a finite entry."""
    bbar = rng.integers(-3, 4, (nx, ny)).astype(float)
    bbar[rng.random((nx, ny)) < 0.3] = -math.inf
    bbar[np.arange(nx), np.arange(nx) % ny] = 0.0
    bbar[np.arange(ny) % nx, np.arange(ny)] = 1.0
    return build_moreau(bbar.tolist())


def _form_case(rng, nx, ny):
    """A table of all four kinds of forms, every row and column repaired
    to keep an affine entry."""
    def form():
        kind = rng.integers(4)
        c = float(rng.integers(-3, 4))
        if kind == 0:
            return Off()
        if kind == 1:
            return Affine(c, 1.0 if rng.random() < 0.5 else float(rng.uniform(0.125, 8)))
        if kind == 2:
            return SignedPower(c, float(rng.uniform(0.25, 4)), float(rng.integers(-2, 3)))
        return TabulatedDecreasing(((c, 1.0), (c + 1, -1.0), (c + 2.5, -4.0)))

    rows = [[form() for _ in range(ny)] for _ in range(nx)]
    for i in range(nx):
        rows[i][i % ny] = Affine(float(rng.integers(-3, 4)), 1.0)
    for j in range(ny):
        rows[j % nx][j] = Affine(float(rng.integers(-3, 4)), 2.0)
    return build_table(rows)


def _whole_table(kernel, lam):
    """The slices at ``lam``, one row per x, and their support: from the
    stored array, or from the scalar forms one by one."""
    if kernel.is_moreau:
        bbar = kernel.bbar_row(slice(None))
        with np.errstate(invalid="ignore"):
            vals = bbar - lam
        vals[np.isnan(vals)] = -math.inf
        return vals, np.isfinite(bbar)
    n_out, n_in = kernel.shape
    forms = [[kernel.entry(o, k) for k in range(n_in)] for o in range(n_out)]
    vals = np.array([[e.eval_float(lam[k]) for k, e in enumerate(row)] for row in forms])
    return vals, np.array([[not isinstance(e, Off) for e in row] for row in forms])


def _numpy_reduction(vals, support, tol):
    """The supremum of each row, and the CSR rows of its entries within
    ``tol`` of it, or of its support when the supremum is -inf."""
    top = vals.max(axis=1)
    hit = vals >= (top - tol)[:, None]
    empty = np.isneginf(top)
    hit[empty] = support[empty]
    indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1))))
    return top, indptr, np.nonzero(hit)[1]


@pytest.mark.parametrize("shape", [(1, 1), (255, 3), (256, 3), (257, 3), (3, 513)])
@pytest.mark.parametrize("make", [_coupling_case, _form_case], ids=["coupling", "forms"])
@pytest.mark.parametrize("dual", [False, True], ids=["forward", "adjoint"])
def test_sup_pass_matches_numpy_reduction_of_whole_table(shape, make, dual):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    kernel = make(rng, *shape)
    if dual:  # the adjoint is the forward map of the dual
        kernel = kernel.dual
    n_in = kernel.shape[1]
    draws = [np.full(n_in, math.inf), np.full(n_in, -math.inf)]
    for _ in range(3):
        # integers moved by fractions of 1e-9, with both infinities
        lam = rng.integers(-3, 4, n_in) + rng.choice([0.0, 5e-10, 1e-9, 1.5e-9], n_in)
        lam[rng.random(n_in) < 0.15] = math.inf
        lam[rng.random(n_in) < 0.15] = -math.inf
        draws.append(lam)
    for lam in draws:
        vals, support = _whole_table(kernel, lam)
        for tol in (0.0, 1e-9):
            top, family = sup_pass(kernel, lam, tol)
            want_top, indptr, indices = _numpy_reduction(vals, support, tol)
            assert np.array_equal(top, want_top)
            assert np.array_equal(family.indptr, indptr)
            assert np.array_equal(family.indices, indices)
        assert np.array_equal(sup_pass(kernel, lam)[0], want_top)


def _grid_lazy(monkeypatch):
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)  # threads at any size
    grid = GridSpec.line(-3, 3, 0.01)
    return build_grid_kernel(FenchelDot(), grid, grid)


@pytest.mark.parametrize("make", [
    lambda mp: _coupling_case(np.random.default_rng(1), 600, 40),
    lambda mp: _form_case(np.random.default_rng(2), 40, 600),
    _grid_lazy,
], ids=["coupling", "forms", "lazy"])
def test_first_pass_results_survive_later_passes(monkeypatch, make):
    """No result of a pass aliases a scratch block that a later pass
    writes to, nor a block that the table hands out."""
    kernel = make(monkeypatch)
    use_cpus(monkeypatch, 2)
    rng = np.random.default_rng(4)
    nx, ny = kernel.shape
    g = rng.integers(-3, 4, nx).astype(float)
    top, family = sup_pass(kernel.dual, g, 1e-9)
    ftop, ffamily = sup_pass(kernel, rng.normal(size=ny), 1e-9)
    table = slice_table(kernel.dual, g)
    kept = [a.copy() for a in (top, family.indptr, family.indices,
                               ftop, ffamily.indptr, ffamily.indices, table)]
    sup_pass(kernel.dual, rng.normal(size=nx), 0.0)
    sup_pass(kernel, rng.normal(size=ny), 1e-9)
    sup_pass(kernel.dual, rng.normal(size=nx))
    for was, now in zip(kept, (top, family.indptr, family.indices,
                               ftop, ffamily.indptr, ffamily.indices, table)):
        assert now.tobytes() == was.tobytes()


def test_scratch_blocks_are_per_thread(monkeypatch):
    """More shares of the blocks than cores, switching often: every
    thread writes its blocks and tie masks into its own scratch, so the
    threaded pass gives the serial one's bytes."""
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)
    grid = GridSpec.line(-3, 3, 0.0025)  # 2401 points: 10 blocks
    kernel = build_grid_kernel(FenchelDot(), grid, grid)
    g = np.round(np.abs(grid.points()), 1)
    use_cpus(monkeypatch, 1)
    serial = sup_pass(kernel.dual, g, 1e-9)
    use_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sup_pass(kernel.dual, g, 1e-9)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip((serial[0], serial[1].indptr, serial[1].indices),
                    (threaded[0], threaded[1].indptr, threaded[1].indices)):
        assert a.tobytes() == b.tobytes()


def test_stored_coupling_table_keeps_both_orientations():
    rng = np.random.default_rng(6)
    bbar = rng.integers(-3, 4, (7, 5)).astype(float)
    bbar[0, 1:] = -math.inf
    # an array in Fortran order is stored C-contiguous too
    for table in (build_moreau(bbar.tolist()).table,
                  CouplingTable.stored(np.asfortranarray(bbar))):
        for side, want in ((table, bbar), (table.dual, bbar.T)):
            whole = side.block(slice(None))
            assert not whole.flags.writeable
            assert whole.flags.c_contiguous
            assert np.array_equal(whole, want)
            part = side.block(slice(1, 3))
            assert not part.flags.writeable and part.flags.c_contiguous
            assert np.array_equal(part, want[1:3])
