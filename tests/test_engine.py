import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILY_GRIDS,
    FAMILY_IDS,
    dense_and_lazy,
    random_function,
    random_moreau_kernel,
    use_cpus,
)
import galois_solve.engine as engine
import galois_solve.kernel as kernel_mod
from galois_solve.covering import CoverFamily, offsets
from galois_solve.engine import (
    FunctionOnSpace,
    apply_adjoint,
    apply_forward,
    domain_report,
    projector,
    slice_table,
    subdiff,
    subdiff_inverse,
)
from galois_solve.errors import ValidationError
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


# -- the worked 2x3 example


def test_forward_on_alternate_solution(demo_kernel):
    f = fos(demo_kernel.y_labels, math.inf, math.inf, -6)
    g = apply_forward(demo_kernel, f)
    assert np.allclose(g.values, [8, 6])


def test_forward_of_top_is_bottom(demo_kernel):
    f = FunctionOnSpace.constant(demo_kernel.y_labels, math.inf)
    g = apply_forward(demo_kernel, f)
    assert np.all(np.isneginf(g.values))


def test_dirac_column(demo_kernel):
    f = FunctionOnSpace.dirac(demo_kernel.y_labels, "y2", 0)
    g = apply_forward(demo_kernel, f)
    assert np.allclose(g.values, [4, 3])


def test_adjoint_on_demo_target(demo_kernel, demo_g):
    out = apply_adjoint(demo_kernel, demo_g)
    assert np.allclose(out.values, [-SQRT6, -4 / 3, -6], atol=1e-12)


def test_adjoint_on_bad_target(demo_kernel, demo_g_bad):
    out = apply_adjoint(demo_kernel, demo_g_bad)
    assert np.allclose(out.values, [math.sqrt(3), 6, 3], atol=1e-12)


def test_adjoint_of_top_is_bottom(demo_kernel):
    g = FunctionOnSpace.constant(demo_kernel.x_labels, math.inf)
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
    g = FunctionOnSpace.constant(demo_kernel.x_labels, math.inf)
    _, inv = subdiff_inverse(demo_kernel, g)
    for j, y in enumerate(demo_kernel.y_labels):
        expected = {demo_kernel.x_labels[i] for i in demo_kernel.support_col(j)}
        assert inv.sets[y] == expected


def test_subdiff_inverts_subdiff_inverse(demo_kernel, demo_g):
    f = apply_adjoint(demo_kernel, demo_g)
    sd = subdiff(demo_kernel, f)
    _, inv = subdiff_inverse(demo_kernel, demo_g)
    assert sd.sets == inv.sets
    # and the inverse relation is consistent both ways
    assert sd.invert().invert().sets == sd.sets


def test_subdiff_of_top(demo_kernel):
    f = FunctionOnSpace.constant(demo_kernel.y_labels, math.inf)
    sd = subdiff(demo_kernel, f)
    for j, y in enumerate(demo_kernel.y_labels):
        expected = {demo_kernel.x_labels[i] for i in demo_kernel.support_col(j)}
        assert sd.sets[y] == expected


def test_subdiff_on_conjugate_grid():
    grid = GridSpec.line(-2, 2, 0.01)
    k = build_grid_kernel(FenchelDot(), grid, grid)
    pts = grid.points()
    f = FunctionOnSpace(grid.labels(), 0.5 * pts * pts)
    sd = subdiff(k, f)
    centres = []
    for j, y in enumerate(grid.labels()):
        members = sorted(float(m) for m in sd.sets[y])
        # gradient map: the maximiser sits at (or next to) the slope point
        oracle = pts[np.argmax(pts[j] * pts - 0.5 * pts * pts)]
        assert members, y
        assert min(abs(m - oracle) for m in members) <= 0.01 + 1e-9
        centres.append(0.5 * (members[0] + members[-1]))
    assert all(a <= b + 1e-9 for a, b in zip(centres, centres[1:]))


def test_invert_matches_label_sets():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ns, nt = rng.integers(1, 8, 2)
        ties = [np.flatnonzero(rng.random(nt) < 0.4) for _ in range(ns)]
        src = tuple(f"s{k}" for k in range(ns))
        tgt = tuple(f"t{k}" for k in range(nt))
        fwd = CoverFamily(tgt, src, offsets([len(t) for t in ties]),
                          np.concatenate([np.empty(0, np.intp), *ties]))
        inv = fwd.invert()
        assert inv.index_pool == tgt and inv.universe == src
        assert inv.sets == {t: frozenset(s for s in src if t in fwd.sets[s])
                            for t in tgt}
        assert all(np.all(np.diff(inv.indices[a:b]) > 0)
                   for a, b in zip(inv.indptr, inv.indptr[1:]))


def test_domain_report(demo_g, demo_kernel):
    rep = domain_report(demo_g)
    assert rep.ldom == rep.udom == rep.dom == ("x1", "x2")
    g2 = fos(demo_kernel.x_labels, -math.inf, 2)
    assert domain_report(g2).udom == ("x2",)
    bstar = fos(demo_kernel.y_labels, math.sqrt(3), 6, 3)
    assert domain_report(bstar).ldom == ("y1", "y2", "y3")


def test_label_mismatch_raises(demo_kernel, demo_g):
    with pytest.raises(ValidationError):
        apply_forward(demo_kernel, demo_g)  # g lives on the x side


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
        assert apply_forward(k, bstar_bf).approx_eq(bf)
        ag = apply_adjoint(k, g)
        assert apply_adjoint(k, projector(k, g)).approx_eq(ag)
        # adjunction: g above the transform of f iff f above the adjoint of g
        assert bf.leq(g, 1e-12) == ag.leq(f, 1e-12)


def test_antitone_and_sup_morphism():
    rng = random.Random(13)
    for _ in range(60):
        k = random_moreau_kernel(rng, max_side=5)
        f1 = random_function(rng, k.y_labels)
        f2 = random_function(rng, k.y_labels)
        lo, hi = f1.pointwise_min(f2), f1.pointwise_max(f2)
        b_lo, b_hi = apply_forward(k, lo), apply_forward(k, hi)
        b1, b2 = apply_forward(k, f1), apply_forward(k, f2)
        assert b_hi.leq(b1) and b_hi.leq(b2)
        assert b_lo.approx_eq(b1.pointwise_max(b2))


def test_degenerate_laws():
    rng = random.Random(17)
    for _ in range(30):
        k = random_moreau_kernel(rng, max_side=5)
        top_g = FunctionOnSpace.constant(k.x_labels, math.inf)
        assert np.all(np.isneginf(apply_adjoint(k, top_g).values))
        bot_g = FunctionOnSpace.constant(k.x_labels, -math.inf)
        a = apply_adjoint(k, bot_g)
        assert np.all(np.isposinf(a.values))
        assert np.all(np.isneginf(apply_forward(k, a).values))


def test_dirac_identity_random():
    rng = random.Random(19)
    for _ in range(20):
        k = random_moreau_kernel(rng, max_side=4)
        for j, y in enumerate(k.y_labels):
            for s in (-1.0, 0.0, 1.0, math.inf, -math.inf):
                d = FunctionOnSpace.dirac(k.y_labels, y, s)
                got = apply_forward(k, d)
                want = [k.entry(i, j).eval_float(s) for i in range(k.shape[0])]
                assert np.array_equal(got.values, want)


def test_threaded_pass_gives_same_answer(monkeypatch):
    grid = GridSpec.line(-2, 2, 0.005)
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)
    k = build_grid_kernel(FenchelDot(), grid, grid)
    assert k.is_lazy
    pts = grid.points()
    f = FunctionOnSpace(grid.labels(), 0.5 * pts * pts)
    g = FunctionOnSpace(grid.labels(), np.abs(pts))
    use_cpus(monkeypatch, 2)
    threaded = apply_forward(k, f), subdiff_inverse(k, g)
    use_cpus(monkeypatch, 1)
    serial = apply_forward(k, f), subdiff_inverse(k, g)
    assert np.array_equal(threaded[0].values, serial[0].values)
    assert _same_map(threaded[1], serial[1])


class _SerialPool:
    """Stands in for the thread pool: records max_workers, maps in turn."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("n_out", [3 * engine._BLOCK, 5 * engine._BLOCK + 1])
def test_thread_count_is_capped_at_cpus_and_blocks(monkeypatch, n_out):
    rng = np.random.default_rng(n_out)
    bbar = rng.integers(-3, 3, (4, n_out)).astype(float)
    moreau = build_moreau(bbar.tolist())
    forms = build_table([[Affine(v, 2.0) for v in row] for row in bbar.tolist()])
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)
    lazy = build_grid_kernel(FenchelDot(), GridSpec.line(0, 3, 1),
                             GridSpec.line(0, n_out - 1, 1))
    kernels = (moreau, forms, lazy)
    gv = rng.normal(size=4)
    use_cpus(monkeypatch, 1)
    serial = [apply_adjoint(k, FunctionOnSpace(k.x_labels, gv)) for k in kernels]
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _SerialPool)
    use_cpus(monkeypatch, 4)
    blocks = -(-n_out // engine._BLOCK)
    # stored tables, of couplings or of forms, run serially
    for k, want, workers in zip(kernels, serial, ([], [], [min(4, blocks)])):
        _SerialPool.workers = []
        pooled = apply_adjoint(k, FunctionOnSpace(k.x_labels, gv))
        assert _SerialPool.workers == workers
        assert np.array_equal(pooled.values, want.values)


# -- lazy and dense kernels agree, bit for bit

def _same_map(a, b):
    return a[1].sets == b[1].sets and np.array_equal(a[0], b[0])


@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_lazy_and_dense_transforms_agree(monkeypatch, family, x_grid, y_grid):
    dense, lazy = dense_and_lazy(monkeypatch, family, x_grid, y_grid)
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

    keep = dense.y_labels[1::2]
    r_dense, r_lazy = dense.restrict(keep), lazy.restrict(keep)
    f_r = FunctionOnSpace(r_dense.y_labels, f.values[1::2])
    assert np.array_equal(apply_forward(r_lazy, f_r).values,
                          apply_forward(r_dense, f_r).values)
    assert np.array_equal(apply_adjoint(r_lazy, g).values,
                          apply_adjoint(r_dense, g).values)
    assert _same_map(subdiff_inverse(r_lazy, g), subdiff_inverse(r_dense, g))


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


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
@pytest.mark.parametrize("a", [1.0, 0.5, 2.0, 1.0 / 3.0])
def test_envelope_path_matches_blocked_reduction(monkeypatch, lazy, a):
    if lazy:
        monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)
    rng = np.random.default_rng(int(a * 96) + lazy)
    eps = np.finfo(float).eps
    for case in range(120):
        dyadic = case % 2 == 0
        x_grid = _random_line(rng, dyadic)
        y_grid = x_grid if case % 4 < 2 else _random_line(rng, dyadic)
        k = build_grid_kernel(OmegaLipschitz(a, 1.0), x_grid, y_grid)
        assert k.lipschitz_line is not None and k.is_lazy == lazy
        table = np.array(k.bbar_row(slice(None)))
        oracle = Kernel(k.x_labels, k.y_labels, CouplingTable.stored(table))
        assert oracle.lipschitz_line is None
        for kind in ("integer", "normal", "inf"):
            for forward in (True, False):
                rows = table if forward else table.T
                lam = _random_lam(rng, rows.shape[1], kind)
                if forward:
                    f = FunctionOnSpace(k.y_labels, lam)
                    fast = apply_forward(k, f).values
                    dense = apply_forward(oracle, f).values
                else:
                    g = FunctionOnSpace(k.x_labels, lam)
                    fast = apply_adjoint(k, g).values
                    dense = apply_adjoint(oracle, g).values
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
    dense, lazy = dense_and_lazy(monkeypatch, family, x_grid, y_grid)
    structured = (isinstance(family, OmegaLipschitz) and family.q == 1
                  and x_grid.ndim == 1)
    restricted = [k.restrict(k.y_labels[::2]) for k in (dense, lazy)]
    for k in (dense, lazy):
        assert (k.lipschitz_line is not None) == structured
    assert all(k.lipschitz_line is None for k in restricted)

    def refuse(*args):
        raise AssertionError("took the envelope path")

    monkeypatch.setattr(engine, "_envelope_pass", refuse)
    rng = np.random.default_rng(3)
    for k in [dense, lazy] + restricted:
        g = FunctionOnSpace(k.x_labels, rng.normal(size=k.shape[0]))
        f = FunctionOnSpace(k.y_labels, rng.normal(size=k.shape[1]))
        # tie sets always come from the blocked reduction
        subdiff_inverse(k, g)
        subdiff(k, f)
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
    input on each side, a column subset and a block size."""
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
    keep = sorted(draw(st.sets(st.integers(0, ny - 1), min_size=1)))
    return rows, lam_y, lam_x, keep, draw(st.integers(1, 4))


def _evaluated_blocks(kernel, lam, by_rows, size):
    block = engine._blocks(kernel, lam, by_rows)
    n_out = kernel.shape[0 if by_rows else 1]
    return np.vstack([block(lo, min(lo + size, n_out))
                      for lo in range(0, n_out, size)])


@settings(max_examples=80, deadline=None)
@given(form_tables())
def test_table_blocks_match_scalar_forms_bitwise(case):
    rows, lam_y, lam_x, keep, size = case
    kernel = build_table(rows)
    sub = [[r[j] for j in keep] for r in rows]
    try:
        restricted = kernel.restrict([kernel.y_labels[j] for j in keep])
    except ValidationError:
        restricted = None  # a row lost its support
    for k, forms, lam in ((kernel, rows, lam_y), (restricted, sub, lam_y[keep])):
        if k is None:
            continue
        nx, ny = k.shape
        assert all(k.entry(i, j) == forms[i][j] for i in range(nx) for j in range(ny))
        forward = [[e.eval_float(lam[j]) for j, e in enumerate(r)] for r in forms]
        adjoint = [[forms[i][j].adjoint().eval_float(lam_x[i]) for i in range(nx)]
                   for j in range(ny)]
        got = _evaluated_blocks(k, lam, True, size)
        assert got.tobytes() == np.array(forward).tobytes()
        got = _evaluated_blocks(k, lam_x, False, size)
        assert got.tobytes() == np.array(adjoint).tobytes()
        # the whole table, as the text report prints it, against the
        # kernel's own adjoint slices
        oracle = [[k.adjoint_entry(j, i).eval_float(lam_x[i]) for i in range(nx)]
                  for j in range(ny)]
        assert np.array(oracle).tobytes() == np.array(adjoint).tobytes()
        assert slice_table(k, lam_x, False).tobytes() == np.array(adjoint).tobytes()
        assert slice_table(k, lam, True).tobytes() == np.array(forward).tobytes()


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


def _brute_ties(kernel, lam, by_rows, tol):
    """Per output index, the supremum of its slices at ``lam`` and the
    input indices with ``value >= sup - tol``, or the support when the
    supremum is -inf, from the kernel's scalar forms one by one."""
    n_out, n_in = kernel.shape if by_rows else kernel.shape[::-1]
    tops, ties = [], []
    for o in range(n_out):
        forms = [kernel.entry(o, k) if by_rows else kernel.adjoint_entry(o, k)
                 for k in range(n_in)]
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
    rows, lam_y, lam_x, _, _ = draw(form_tables())
    k = build_table(rows)
    return k, FunctionOnSpace(k.y_labels, lam_y), FunctionOnSpace(k.x_labels, lam_x)


@settings(max_examples=100, deadline=None)
@given(tie_cases())
def test_one_tie_rule_matches_the_scalar_forms(case):
    kernel, f, g = case
    x, y = kernel.x_labels, kernel.y_labels
    for tol in (0.0, 1e-9):
        top, family = subdiff_inverse(kernel, g, tol)
        want_top, ties = _brute_ties(kernel, g.values, False, tol)
        assert np.array_equal(top, want_top)
        assert family.sets == {y[j]: frozenset(x[i] for i in t)
                               for j, t in enumerate(ties)}
        _, ties = _brute_ties(kernel, f.values, True, tol)
        assert subdiff(kernel, f, tol).sets == {
            y[j]: frozenset(x[i] for i, t in enumerate(ties) if j in t)
            for j in range(len(y))}
