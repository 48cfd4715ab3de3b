import math
import os
import random
import signal
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from galois_solve.covering import offsets
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
from galois_solve.extreal import DEFAULT_TOL, INFINITIES, parse
from galois_solve.kernel import (
    CouplingTable,
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    Quadratic,
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(), st.integers(-2**1100, 2**1100), st.booleans(), st.none(),
    st.sampled_from(["+inf", "inf", "-inf", "1.5", -0.0, math.nan, math.inf]),
    st.floats().map(np.float64)), min_size=1, max_size=4))
def test_from_mapping_converts_as_parse_does(values):
    """Values convert as ``extreal.parse`` takes each one, bit for bit,
    and a refused one raises its message, whichever path converts it."""
    labels = [f"l{k}" for k in range(len(values))]
    mapping = dict(zip(labels, values))
    try:
        want = [parse(v, f"value at {l!r}", INFINITIES) for l, v in zip(labels, values)]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            FunctionOnSpace.from_mapping(labels, mapping)
        assert str(got.value) == str(exc)
        return
    got = FunctionOnSpace.from_mapping(labels, mapping).values
    assert got.tobytes() == np.array(want).tobytes()


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


def test_cpus_without_affinity_are_the_machines(monkeypatch):
    monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    assert engine._cpus() == 3
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)  # undeterminable
    assert engine._cpus() == 1


class _RecordingPool:
    """Stands in for a pass's executor: runs each task at once, in the
    calling thread, and counts them."""

    def __init__(self):
        self.tasks = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

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
    # a generated table without a structure, whose passes read full width
    lazy = build_grid_kernel(FenchelDot(), GridSpec.line(0, 3, 1),
                             GridSpec.line(0, n_out - 1, 1))
    lazy = Kernel(lazy.x_space, lazy.y_space, lazy.table)
    kernels = (moreau, forms, lazy)
    gv = rng.normal(size=4)
    use_cpus(monkeypatch, 1)
    serial = [apply_adjoint(k, FunctionOnSpace(k.x_labels, gv)) for k in kernels]
    pool = _RecordingPool()
    monkeypatch.setattr(engine, "ThreadPoolExecutor", lambda *args, **kw: pool)
    use_cpus(monkeypatch, 4)
    blocks = -(-n_out // engine._BLOCK)
    # every table, stored or generated, runs on min(CPUs, blocks) threads
    # above DENSE_LIMIT entries, read at the call, and serially at or
    # below it; the calling thread is one of them and the executor the rest
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


@pytest.mark.parametrize("share", [0, 1], ids=["calling-thread", "pooled"])
def test_no_pass_leaves_a_thread_behind(monkeypatch, share):
    """Every threaded pass ends the threads it starts, a pass with a
    failing span too; the failure is raised once the other share of the
    spans has run."""
    kernel, g = _pooled_case(monkeypatch)
    threads = threading.active_count()
    top, family = sup_pass(kernel, g, 1e-9)
    for _ in range(5):
        again = sup_pass(kernel, g, 1e-9)
        assert threading.active_count() == threads
    assert np.array_equal(again[0], top) and again[1].sets == family.sets

    caller, blocks = threading.current_thread(), engine._blocks
    ran = []  # (first row, thread) of each span the pass read

    def failing(kernel, lam):
        block = blocks(kernel, lam)

        def read(lo, hi, *window):
            if window:  # a span of the pass, not a structure's boundary rows
                if threading.current_thread() is not caller:
                    time.sleep(0.02)  # so the executor's spans end last
                ran.append((lo, threading.current_thread()))
                if lo == share * engine._BLOCK:
                    raise KeyError("a failing span")
            return block(lo, hi, *window)
        return read

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_blocks", failing)
        with pytest.raises(KeyError, match="a failing span"):
            sup_pass(kernel, g, 1e-9)
        assert threading.active_count() == threads
    on = dict(ran)
    assert (on[share * engine._BLOCK] is caller) == (share == 0)
    other = range((1 - share) * engine._BLOCK, kernel.shape[0], 2 * engine._BLOCK)
    assert len(other) == 2 and set(other) <= set(on)
    after = sup_pass(kernel, g, 1e-9)
    assert np.array_equal(after[0], top) and after[1].sets == family.sets
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_pooled_passes(monkeypatch):
    """A child forked after a threaded pass runs threaded passes of its
    own: no thread of the parent's passes is left for them to wait on."""
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


# -- structures: each kernel's fast paths against the blocked reduction
#    of the same table without the structure, for the kernel and its dual


def _random_line(rng, dyadic):
    """A line of up to 40 points: on a dyadic step from a multiple of it,
    or else on a step whose products round (0.003, 0.0123 or drawn)."""
    n = int(rng.integers(1, 40))
    if dyadic:
        step = 2.0 ** -int(rng.integers(0, 4))
        lo = step * int(rng.integers(-30, 5))
    else:
        step = float(rng.choice([0.003, 0.0123, rng.uniform(0.01, 0.7)]))
        lo = float(rng.uniform(-6.0, 2.0))
    return GridSpec.line(lo, lo + step * (n - 0.5), step)


def _line_target(rng, kind, grid, a, scale):
    """A target on ``grid``: normal, quarter-integer (full of exact
    ties), a-Lipschitz cones (ties along whole slopes), or quarter-
    integer with both infinities."""
    pts, n = grid.points(), grid.size()
    if kind == "normal":
        return scale * rng.normal(size=n)
    if kind == "cones":
        centres = rng.choice(n, min(n, 3), replace=False)
        base = scale * rng.integers(-4, 5, len(centres)) / 4
        return np.min(base[:, None] + a * np.abs(pts[None, :] - pts[centres][:, None]),
                      axis=0)
    lam = scale * rng.integers(-8, 9, n) / 4
    if kind == "inf":
        lam[rng.random(n) < 0.2] = math.inf
        lam[rng.random(n) < 0.1] = -math.inf
    return lam


def _lipschitz_line(rng, dyadic, same):
    """-a|y - x| on random 1-D grids; its targets by kind and scale; the
    rounding bound of its transform, a few ulps of a*(max|x| + max|y|)
    + max|lam| over the finite lam; and whether every operation is
    exact on targets of quarter-integers times an integer: on dyadic
    grids, at a slope other than 1/3."""
    a = float(rng.choice([1 / 3, 0.5, 1.0, 2.0, 3.0]))
    x_grid = _random_line(rng, dyadic)
    y_grid = x_grid if same else _random_line(rng, dyadic)

    def bound(k, lam):
        finite = np.abs(lam[np.isfinite(lam)])
        return 8 * np.finfo(float).eps * (
            a * (np.abs(k.x_space.points()).max() + np.abs(k.y_space.points()).max())
            + finite.max(initial=0.0))

    return (build_grid_kernel(OmegaLipschitz(a, 1.0), x_grid, y_grid),
            lambda rng, kind, grid, scale: _line_target(rng, kind, grid, a, scale),
            bound, dyadic and a != 1 / 3)


def _monge_line(family, slope):
    """``family`` on random 1-D grids, with the Lipschitz line's targets
    (cones of slope ``slope``).  Its structure has no transform of its
    own: the windowed pass at tol 0 gives the maxima bit for bit."""
    def make(rng, dyadic, same):
        x_grid = _random_line(rng, dyadic)
        y_grid = x_grid if same else _random_line(rng, dyadic)
        return (build_grid_kernel(family, x_grid, y_grid),
                lambda rng, kind, grid, scale: _line_target(rng, kind, grid, slope, scale),
                lambda k, lam: 0.0, True)
    return make


#: name -> rng, dyadic, same -> (a kernel with that structure, its
#: targets, the rounding bound of its transform, whether it is exact)
STRUCTURES = {"lipschitz_line": _lipschitz_line,
              "fenchel_line": _monge_line(FenchelDot(), 1.0),
              "quadratic_line": _monge_line(Quadratic(0.7), 0.7),
              "concave_quadratic_line": _monge_line(Quadratic(-1.3), 1.3)}

structure_draws = dict(
    seed=st.integers(0, 2**32 - 1), dyadic=st.booleans(), same=st.booleans(),
    kind=st.sampled_from(["normal", "quarter", "cones", "inf"]),
    exponent=st.integers(-3, 3))


def _structured(name, side, seed, dyadic, same, kind, exponent):
    """A drawn kernel with a structure, or its dual, the same table
    without it, and a target."""
    rng = np.random.default_rng(seed)
    k, target, bound, exact = STRUCTURES[name](rng, dyadic, same)
    oracle = Kernel(k.x_space, k.y_space, k.table)
    assert k.structure is not None and oracle.structure is None
    if side == "dual":
        k, oracle = k.dual, oracle.dual
    lam = target(rng, kind, k.y_space, 10.0 ** exponent)
    return k, oracle, lam, bound(k, lam), exact and kind != "normal" and exponent >= 0


@pytest.mark.parametrize("side", ["kernel", "dual"])
@pytest.mark.parametrize("name", STRUCTURES)
@settings(max_examples=150, deadline=None)
@given(**structure_draws)
def test_structure_transform_matches_blocked_reduction(name, side, **draw):
    k, oracle, lam, bound, exact = _structured(name, side, **draw)
    fast, _ = sup_pass(k, lam)
    want, _ = sup_pass(oracle, lam)
    # each value is an entry of its row, within the bound below its maximum
    assert np.all((slice_table(oracle, lam) == fast[:, None]).any(axis=1))
    assert np.all(fast <= want)
    fin = np.isfinite(want)
    assert np.array_equal(fast[~fin], want[~fin])
    assert np.all(fast[fin] >= want[fin] - bound)
    if exact:
        assert np.array_equal(fast, want)


@pytest.mark.parametrize("side", ["kernel", "dual"])
@pytest.mark.parametrize("name", STRUCTURES)
@settings(max_examples=150, deadline=None)
@given(tol=st.sampled_from([0.0, 1e-9, 1e-3]), rows=st.sampled_from([1, 5, 16, 256]),
       **structure_draws)
def test_structure_ties_match_full_width_blocks(name, side, tol, rows, **draw):
    k, oracle, lam, _, _ = _structured(name, side, **draw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_BLOCK", rows)
        spans = [(lo, min(lo + rows, k.shape[0])) for lo in range(0, k.shape[0], rows)]
        windows = k.structure.windows(engine._blocks(k, lam), lam, tol, spans)
        if np.isfinite(lam).all():
            assert all(0 <= jlo < jhi <= k.shape[1] for jlo, jhi in windows)
        else:  # read full width
            assert windows is None
        top, family = sup_pass(k, lam, tol)
        want_top, want = sup_pass(oracle, lam, tol)
    assert np.array_equal(top, want_top)
    assert np.array_equal(family.indptr, want.indptr)
    assert np.array_equal(family.indices, want.indices)


@pytest.mark.parametrize("side", ["kernel", "dual"])
@settings(max_examples=150, deadline=None)
@given(a=st.floats(1e300, 8e307), n=st.integers(2, 8), m=st.integers(2, 8),
       lam=st.lists(st.floats(-1.7e308, 1.7e308) | st.sampled_from([-1.7e308, 1e308, 1.7e308]),
                    min_size=8, max_size=8))
@example(a=8e307, n=3, m=3, lam=[1e308, 1.7e308, 1.7e308] + [0.0] * 5)
def test_lipschitz_transform_reads_blocks_where_its_keys_overflow(side, a, n, m, lam):
    """At a up to 8e307 and |lam| up to 1.7e308, on lines of 2 to 8
    points, the transform's argmax keys a*y - lam can overflow.  Where
    twice the scale plus the largest |lam| does, the structured pass
    reads the table's blocks, and its maxima are those of full-width
    blocks bit for bit; elsewhere they are within the transform's
    rounding bound below them."""
    k = build_grid_kernel(OmegaLipschitz(a, 1.0), GridSpec.line(-1.0, -1 + 0.25 * (n - 1), 0.25),
                          GridSpec.line(-1.0, -1 + 0.25 * (m - 1), 0.25))
    oracle = Kernel(k.x_space, k.y_space, k.table)
    if side == "dual":
        k, oracle = k.dual, oracle.dual
    lam = np.array(lam[:k.shape[1]])
    fast, _ = sup_pass(k, lam)
    want, _ = sup_pass(oracle, lam)
    bound = k.structure.scale + float(np.abs(lam).max())
    if math.isfinite(2 * bound):
        assert np.all((fast <= want) & (fast >= want - 8 * np.finfo(float).eps * bound))
    else:
        assert fast.tobytes() == want.tobytes()


def test_a_structure_scale_that_overflows_reads_full_width_blocks():
    """On lines far from 0 the entries -|y - x| are finite while the
    structure's scale max|x| + max|y| overflows: the kernel builds
    without a warning, and its passes read full-width blocks."""
    line = GridSpec.line(1e308, 1.7e308, 1e306)
    k = build_grid_kernel(OmegaLipschitz(1.0, 1.0), line, line)
    assert k.structure.scale == math.inf
    oracle = Kernel(k.x_space, k.y_space, k.table)
    lam = np.linspace(-1.0, 1.0, k.shape[1])
    assert sup_pass(k, lam)[0].tobytes() == sup_pass(oracle, lam)[0].tobytes()
    (top, family), (want_top, want) = sup_pass(k, lam, 0.0), sup_pass(oracle, lam, 0.0)
    assert top.tobytes() == want_top.tobytes()
    assert np.array_equal(family.indptr, want.indptr)
    assert np.array_equal(family.indices, want.indices)


@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_envelope_path_selection(monkeypatch, family, x_grid, y_grid):
    dense, lazy = stored_and_generated(family, x_grid, y_grid)
    # the supermodular 1-D families; only the Lipschitz line has a transform
    structured = x_grid.ndim == 1 and (isinstance(family, (FenchelDot, Quadratic))
                                       or isinstance(family, OmegaLipschitz) and family.q == 1)
    closed_form = structured and isinstance(family, OmegaLipschitz)
    for k in (dense, lazy):
        assert (k.structure is not None) == (k.dual.structure is not None) == structured

    taken = []

    def spy(owner, name):
        real = getattr(owner, name)

        def record(*args):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, record)

    spy(kernel_mod.LipschitzLine, "transform")
    spy(kernel_mod.MongeLine, "windows")
    spy(engine, "_blocks")
    # a structure's tie sets reduce the table's blocks in the windows that
    # its boundary rows bound, and so does its transform, unless it has a
    # closed form; other kernels reduce full-width blocks
    ties = ["_blocks", "windows"] if structured else ["_blocks"]
    transform = ["transform"] if closed_form else ties
    rng = np.random.default_rng(3)
    for k in (dense, lazy):
        g = FunctionOnSpace(k.x_labels, rng.normal(size=k.shape[0]))
        f = FunctionOnSpace(k.y_labels, rng.normal(size=k.shape[1]))
        for call, path in ((lambda: subdiff_inverse(k, g), ties),
                           (lambda: sup_pass(k, f.values, DEFAULT_TOL), ties),
                           (lambda: apply_forward(k, f), transform),
                           (lambda: apply_adjoint(k, g), transform)):
            taken.clear()
            call()
            assert taken == path
        # an infinite target keeps the full-width blocks
        taken.clear()
        sup_pass(k, np.where(np.arange(k.shape[1]) == 0, math.inf, f.values), DEFAULT_TOL)
        assert taken == ties


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


# -- a window of a block is that block's columns, bit for bit


# only coupling tables are read in windows: a table of forms at full width
WINDOW_SOURCES = FAMILY_GRIDS + ["moreau"]
WINDOW_IDS = FAMILY_IDS + ["moreau"]


@st.composite
def windowed_blocks(draw, source):
    """A kernel of ``source`` (a family on its grids, stored or
    generated, or a random coupling table with -inf entries) or its
    dual, an input on its y side with both infinities, and a window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "moreau":
        k = random_moreau_kernel(random.Random(int(rng.integers(2**32))), 9)
    else:
        k = stored_and_generated(*source)[draw(st.integers(0, 1))]
    if draw(st.booleans()):
        k = k.dual
    n_out, n_in = k.shape
    lam = rng.integers(-8, 9, n_in) / 4 * 10.0 ** int(rng.integers(-2, 3))
    lam[rng.random(n_in) < 0.2] = math.inf
    lam[rng.random(n_in) < 0.2] = -math.inf
    lo = draw(st.integers(0, n_out - 1))
    jlo = draw(st.integers(0, n_in - 1))
    width = draw(st.one_of(st.just(1), st.integers(1, n_in - jlo)))  # one column often
    return k, lam, (lo, draw(st.integers(lo + 1, n_out)), jlo, jlo + width)


@pytest.mark.parametrize("source", WINDOW_SOURCES, ids=WINDOW_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_window_is_the_full_width_block_cut(source, data):
    k, lam, (lo, hi, jlo, jhi) = data.draw(windowed_blocks(source))
    block = engine._blocks(k, lam)
    want = block(lo, hi)[:, jlo:jhi]
    for out in (None, np.full(want.shape, np.nan)):  # fresh, or the caller's scratch
        got = block(lo, hi, jlo, jhi, out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


@st.composite
def tie_count_cases(draw):
    """A kernel, an input and a tolerance of one of three kinds: a stored
    coupling table with -inf entries at an input mostly +inf, whose rows
    of -inf supremum take their support; a 1-D grid family or its dual,
    read in Monge windows; a dense 0/1 table at a 0/1 input, full of
    exact ties."""
    kind = draw(st.sampled_from(["support", "monge", "zero_one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    if kind == "monge":
        make = STRUCTURES[draw(st.sampled_from(sorted(STRUCTURES)))]
        kernel, target, _, _ = make(rng, draw(st.booleans()), draw(st.booleans()))
        if draw(st.booleans()):
            kernel = kernel.dual
        kind = draw(st.sampled_from(["normal", "quarter", "cones"]))
        return kernel, target(rng, kind, kernel.y_space, 1.0), tol
    nx, ny = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    if kind == "support":
        kernel = _coupling_case(rng, nx, ny)
        lam = rng.integers(-3, 4, ny).astype(float)
        lam[rng.random(ny) < draw(st.sampled_from([0.5, 0.95]))] = math.inf
        return kernel, lam, tol
    kernel = build_moreau(rng.integers(0, 2, (nx, ny)).astype(float).tolist())
    return kernel, rng.integers(0, 2, ny).astype(float), tol


@settings(max_examples=120, deadline=None)
@given(case=tie_count_cases(), rows=st.sampled_from([1, 5, 256]))
def test_tie_counts_match_the_full_width_mask(case, rows):
    """Each row's tie count, taken from the sorted positions of the
    block's members, is the count of its full-width mask: the entries
    within ``tol`` of the row's supremum, or its support at -inf."""
    kernel, lam, tol = case
    vals = slice_table(kernel, lam)
    top = vals.max(axis=1)
    mask = vals >= (top - tol)[:, None]
    for r in np.flatnonzero(np.isneginf(top)):
        mask[r] = False
        mask[r, list(kernel.support_row(r))] = True
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_BLOCK", rows)
        got_top, family = sup_pass(kernel, lam, tol)
    assert np.array_equal(got_top, top)
    assert np.array_equal(family.indptr, offsets(np.count_nonzero(mask, axis=1)))
    assert np.array_equal(family.indices, np.nonzero(mask)[1])


def test_default_limit_keeps_a_900_square_off_the_pool(monkeypatch):
    """At the default DENSE_LIMIT a pass over a stored 900 x 900 table,
    the benchmark's largest square, runs serially on any number of
    CPUs; a pass over more entries than the limit still takes threads."""
    pool = _RecordingPool()
    monkeypatch.setattr(engine, "ThreadPoolExecutor", lambda *args, **kw: pool)
    use_cpus(monkeypatch, 4)
    rng = np.random.default_rng(10)
    labels = [f"p{k}" for k in range(900)]
    square = Kernel(labels, labels, CouplingTable.stored(rng.normal(size=(900, 900))))
    subdiff_inverse(square, FunctionOnSpace(labels, rng.normal(size=900)))
    sup_pass(square, rng.normal(size=900))
    assert pool.tasks == 0
    line = build_grid_kernel(FenchelDot(), GridSpec.line(0, 1499, 1), GridSpec.line(0, 1499, 1))
    wide = Kernel(line.x_space, line.y_space, line.table)  # full width, no structure
    assert wide.shape[0] * wide.shape[1] > kernel_mod.DENSE_LIMIT
    sup_pass(wide, rng.normal(size=1500))
    assert pool.tasks == 3


def _grid_lazy(monkeypatch):
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)  # threads at any size
    grid = GridSpec.line(-3, 3, 0.01)
    return build_grid_kernel(FenchelDot(), grid, grid)


@pytest.mark.parametrize("make", [
    lambda mp: _coupling_case(np.random.default_rng(1), 600, 40),
    lambda mp: _form_case(np.random.default_rng(2), 40, 600),
    _grid_lazy,
    lambda mp: _sparse_case(np.random.default_rng(3), 600, 40),
], ids=["coupling", "forms", "lazy", "sparse"])
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


# -- the support pass of a sparse stored coupling table against the same
#    table without its CSR, read in full-width blocks


def _sparse_case(rng, nx, ny, integer=True):
    """A stored coupling table whose finite entries are at most
    SPARSE_SHARE of it, or every entry of a 1-row or 1-column table,
    which A1/A2 ask for.  Rows drawn empty and columns cleared are
    repaired to hold one entry each; the last row holds only column 0,
    and the last column only row 0."""
    if min(nx, ny) == 1:
        mask = np.ones((nx, ny), dtype=bool)
    else:
        mask = rng.random((nx, ny)) < rng.choice([0.0, 0.05, 0.2], nx)[:, None]
        mask[:, rng.random(ny) < 0.2] = False
        mask[-1] = mask[:, -1] = False
        mask[-1, 0] = mask[0, -1] = True
        for i in np.flatnonzero(~mask.any(axis=1)):
            mask[i, rng.integers(ny - 1)] = True
        for j in np.flatnonzero(~mask.any(axis=0)):
            mask[rng.integers(nx - 1), j] = True
    values = rng.integers(-3, 4, (nx, ny)) if integer else rng.normal(size=(nx, ny))
    return build_moreau(np.where(mask, values, -math.inf).tolist())


def _without_csr(kernel):
    table = kernel.table
    return Kernel(kernel.x_space, kernel.y_space,
                  CouplingTable(table.rows, table.cols, table.shape, False))


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (300, 257), (257, 300),
                                   (40, 700), (513, 20)])
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "normal"])
@pytest.mark.parametrize("dual", [False, True], ids=["forward", "adjoint"])
def test_support_pass_matches_the_full_width_blocks(monkeypatch, shape, integer, dual):
    """Maxima bitwise, and the same tie sets, at tol 0 and 1e-9, at
    inputs mixing finite values and both infinities.  A table of 1 or 2
    rows or columns meets A1/A2 only above the share, so it gets its
    CSR with the share raised to 1."""
    if min(shape) <= 2:
        monkeypatch.setattr(kernel_mod, "SPARSE_SHARE", 1.0)
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + integer)
    kernel = _sparse_case(rng, *shape, integer)
    oracle = _without_csr(kernel)
    if dual:
        kernel, oracle = kernel.dual, oracle.dual
    assert kernel.slices().support is not None and oracle.slices().support is None
    n_out, n_in = kernel.shape
    draws = [np.full(n_in, math.inf), np.full(n_in, -math.inf)]
    for _ in range(4):
        lam = rng.integers(-3, 4, n_in) + rng.choice([0.0, 5e-10, 1e-9, 1.5e-9], n_in)
        lam[rng.random(n_in) < 0.15] = math.inf
        lam[rng.random(n_in) < 0.05] = -math.inf
        # the last row meets column 0 only, and row 0 meets the last column
        lam[0], lam[-1] = math.inf, -math.inf
        draws.append(lam)
    for k, lam in enumerate(draws):
        want = sup_pass(oracle, lam)[0]
        assert sup_pass(kernel, lam)[0].tobytes() == want.tobytes()
        for tol in (0.0, 1e-9):
            top, family = sup_pass(kernel, lam, tol)
            want_top, want_family = sup_pass(oracle, lam, tol)
            assert top.tobytes() == want_top.tobytes() == want.tobytes()
            assert np.array_equal(family.indptr, want_family.indptr)
            assert np.array_equal(family.indices, want_family.indices)
        if k >= 2 and min(shape) > 1:
            assert np.isneginf(want[-1]) and np.isposinf(want[0])


def test_a_table_keeps_its_support_up_to_the_share():
    """A stored table whose finite entries are exactly SPARSE_SHARE of
    it keeps them as CSR, for itself and its transpose, and the dual
    swaps the two; one more finite entry, and it keeps none."""
    rng = np.random.default_rng(12)
    bbar = np.full((8, 6), -math.inf)
    bbar[np.arange(8), np.arange(8) % 6] = 1.0
    bbar[[0, 2, 5, 7], [3, 5, 0, 4]] = rng.integers(-3, 4, 4)
    assert np.isfinite(bbar).sum() == kernel_mod.SPARSE_SHARE * bbar.size
    table = build_moreau(bbar.tolist()).table
    for csr, want in ((table.support, bbar), (table.dual_support, bbar.T),
                      (table.dual.support, bbar.T), (table.dual.dual_support, bbar)):
        rows, cols = np.nonzero(np.isfinite(want))
        assert np.array_equal(csr.data, want[rows, cols])
        assert np.array_equal(csr.indices, cols)
        assert np.array_equal(csr.indptr, offsets(np.isfinite(want).sum(axis=1)))
        assert not any(a.flags.writeable for a in csr)
    bbar[1, 4] = 0.0
    table = build_moreau(bbar.tolist()).table
    assert table.support is None and table.dual_support is None
    # a generated table and a table of forms never keep one
    grid = GridSpec.line(0, 3, 1)
    sparse = build_table([[Affine(0.0, 1.0) if i == j else Off() for j in range(4)]
                          for i in range(4)])
    for k in (build_grid_kernel(FenchelDot(), grid, grid), sparse):
        assert k.slices().support is None and k.dual.slices().support is None


def test_a_zero_maximum_has_one_sign_on_both_paths():
    """A stored table reads -0.0 as 0.0, so that no zero maximum takes
    its sign from the order of a row's entries, which differs between a
    full-width block and the support."""
    rng = np.random.default_rng(13)
    bbar = np.where(rng.random((40, 40)) < 0.1, rng.choice([-0.0, 0.0], (40, 40)), -math.inf)
    bbar[np.arange(40), np.arange(40)] = -0.0
    kernel = build_moreau(bbar.tolist())
    assert kernel.table.support is not None
    assert not np.signbit(kernel.table.support.data).any()
    for k, oracle in ((kernel, _without_csr(kernel)), (kernel.dual, _without_csr(kernel).dual)):
        top = sup_pass(k, np.zeros(40), 0.0)[0]
        assert top.tobytes() == sup_pass(oracle, np.zeros(40), 0.0)[0].tobytes()
        assert not np.signbit(top).any()


def test_support_pass_threads_above_the_limit_in_support_entries(monkeypatch):
    """A support pass takes threads above DENSE_LIMIT finite entries,
    not entries of the whole table, and gives the serial pass's bytes."""
    rng = np.random.default_rng(14)
    kernel = _sparse_case(rng, 3 * engine._BLOCK, 50)
    entries = int(kernel.table.support.indptr[-1])
    assert entries < kernel.shape[0] * kernel.shape[1]
    lam = rng.integers(-3, 4, 50).astype(float)
    use_cpus(monkeypatch, 1)
    serial = sup_pass(kernel, lam, 1e-9)
    pool = _RecordingPool()
    monkeypatch.setattr(engine, "ThreadPoolExecutor", lambda *args, **kw: pool)
    use_cpus(monkeypatch, 4)
    for limit, tasks in ((entries - 1, 2), (entries, 0)):
        monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", limit)
        pool.tasks = 0
        got = sup_pass(kernel, lam, 1e-9)
        assert pool.tasks == tasks
        for a, b in zip((serial[0], serial[1].indptr, serial[1].indices),
                        (got[0], got[1].indptr, got[1].indices)):
            assert a.tobytes() == b.tobytes()
