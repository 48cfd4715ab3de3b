import functools
import importlib.util
import math
import pathlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import approx_eq, constant, random_function, random_moreau_kernel, use_cpus
from galois_solve import covering, engine
from galois_solve import solver as solver_mod
from galois_solve import kernel as kernel_mod
from galois_solve.engine import FunctionOnSpace, apply_forward, projector
from galois_solve.errors import InternalError, NoSolutionError, ValidationError
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
from galois_solve.scalar import Affine, Off, SignedPower, TabulatedDecreasing, make_affine
from galois_solve.serialize import solution_to_report
from galois_solve.solver import (
    Problem,
    Status,
    oracle_check,
    solution_structure,
    solve,
    verify,
)

SQRT6 = math.sqrt(6.0)


def test_demo_solution_is_multiple(demo_kernel, demo_g):
    sol = solve(Problem(demo_kernel, demo_g))
    assert sol.status is Status.MULTIPLE
    assert np.allclose(sol.f_min.values, [-SQRT6, -4 / 3, -6], atol=1e-12)
    assert sol.witness_alt is not None
    assert np.array_equal(sol.witness_alt.values, [math.inf, math.inf, -6])
    assert sol.cover.is_cover and not sol.cover.is_minimal
    assert sol.caveats == ()


def test_demo_restricted_is_unique(demo_kernel, demo_g):
    sol = solve(Problem(demo_kernel, demo_g, y_restrict=("y1", "y2")))
    assert sol.status is Status.UNIQUE
    assert np.allclose(sol.f_min.values, [-SQRT6, -4 / 3, math.inf], atol=1e-12)
    assert sol.cover.is_minimal
    assert sol.cover.privately_covered == {"y1": "x2", "y2": "x1"}
    assert sol.witness_alt is None


def test_demo_bad_target_has_no_solution(demo_kernel, demo_g_bad):
    sol = solve(Problem(demo_kernel, demo_g_bad))
    assert sol.status is Status.NO_SOLUTION
    assert sol.cover.uncovered == ("x1",)
    # B f_min falls strictly below the target at the uncovered point
    assert sol.transformed.value("x1") < sol.target.value("x1")


def test_verify_known_solutions(demo_kernel, demo_g):
    prob = Problem(demo_kernel, demo_g)
    f1 = FunctionOnSpace(demo_kernel.y_labels, np.array([-SQRT6, -4 / 3, -6]))
    assert verify(prob, f1).is_solution
    f2 = FunctionOnSpace(demo_kernel.y_labels, np.array([math.inf, math.inf, -6]))
    assert verify(prob, f2).is_solution
    f3 = constant(demo_kernel.y_labels, 0)
    rep = verify(prob, f3)
    assert not rep.is_solution
    assert float(rep.transformed.value("x1")) == 4  # max(0, 4, 2)


def test_verify_respects_restriction(demo_kernel, demo_g):
    # equality required only at x2; at x1 the transform may fall below,
    # but never above
    prob = Problem(demo_kernel, demo_g, x_restrict=("x2",))
    f = FunctionOnSpace(demo_kernel.y_labels, np.array([-SQRT6, math.inf, math.inf]))
    rep = verify(prob, f)
    assert rep.is_solution
    assert float(rep.transformed.value("x1")) < 8
    assert not verify(Problem(demo_kernel, demo_g), f).is_solution
    # exceeding the target anywhere disqualifies, even off the restriction
    f_bad = FunctionOnSpace(demo_kernel.y_labels, np.array([math.inf, -3.0, math.inf]))
    rep_bad = verify(prob, f_bad)
    assert not rep_bad.is_solution
    assert float(rep_bad.transformed.value("x1")) > 8


def test_verify_takes_f_as_inf_off_y_restrict(demo_kernel, demo_g):
    # y3 at -100 lifts B f(x1) to 102 > 8, unless f is +inf off Y'
    f = FunctionOnSpace(demo_kernel.y_labels, np.array([-SQRT6, -4 / 3, -100.0]))
    assert not verify(Problem(demo_kernel, demo_g), f).is_solution
    rep = verify(Problem(demo_kernel, demo_g, y_restrict=("y1", "y2")), f)
    assert rep.is_solution
    assert np.allclose(rep.transformed.values, [8, 6], atol=1e-12)


def test_solution_structure_demo(demo_kernel, demo_g):
    rep = solution_structure(Problem(demo_kernel, demo_g))
    assert rep.forced == ()
    assert set(rep.minimal_active_sets) == {("y1", "y2"), ("y3",)}
    # exhaustive cross-check over all 8 subsets
    expected = {
        s for s in rep.admissible_active_sets
    }
    assert expected == {
        ("y1", "y2"), ("y3",), ("y1", "y3"), ("y2", "y3"), ("y1", "y2", "y3")
    }
    # admissible = up-closure of the minimal antichain
    for s in expected:
        assert any(set(m) <= set(s) for m in rep.minimal_active_sets)


def test_solution_structure_restricted(demo_kernel, demo_g):
    rep = solution_structure(Problem(demo_kernel, demo_g, y_restrict=("y1", "y2")))
    assert rep.forced == ("y1", "y2")
    assert rep.admissible_active_sets == (("y1", "y2"),)


def test_solution_structure_requires_solvable(demo_kernel, demo_g_bad):
    with pytest.raises(NoSolutionError):
        solution_structure(Problem(demo_kernel, demo_g_bad))


def test_degenerate_bottom_target(demo_kernel):
    g = constant(demo_kernel.x_labels, -math.inf)
    sol = solve(Problem(demo_kernel, g))
    # the top function is forced at every index, hence uniqueness
    assert sol.status is Status.UNIQUE
    assert np.all(np.isposinf(sol.f_min.values))
    rep = solution_structure(Problem(demo_kernel, g))
    assert rep.degenerate is not None
    assert rep.admissible_active_sets == ((),)


def test_degenerate_top_target(demo_kernel):
    g = constant(demo_kernel.x_labels, math.inf)
    sol = solve(Problem(demo_kernel, g))
    assert sol.status is not Status.NO_SOLUTION
    assert np.all(np.isneginf(sol.f_min.values))
    assert verify(Problem(demo_kernel, g), sol.f_min).is_solution


def test_oracle_agreement_demo(demo_kernel, demo_g, demo_g_bad):
    assert oracle_check(Problem(demo_kernel, demo_g), trials=200, seed=1)
    assert oracle_check(Problem(demo_kernel, demo_g, y_restrict=("y1", "y2")))
    assert oracle_check(Problem(demo_kernel, demo_g_bad))


def test_oracle_rejects_large_instances():
    from galois_solve import build_moreau

    big = build_moreau([[0] * 7 for _ in range(7)])
    prob = Problem(big, constant(big.x_labels, 0))
    with pytest.raises(ValidationError):
        oracle_check(prob)


def test_oracle_sweep_random():
    rng = random.Random(42)
    for _ in range(120):
        k = random_moreau_kernel(rng)
        g = random_function(rng, k.x_labels)
        assert oracle_check(Problem(k, g), trials=60, seed=rng.randrange(1 << 30))


def test_existence_iff_projector_fixed():
    rng = random.Random(23)
    for _ in range(80):
        k = random_moreau_kernel(rng)
        g = random_function(rng, k.x_labels)
        prob = Problem(k, g)
        sol = solve(prob)
        pg = projector(k, g)
        universe = [l for l, v in zip(g.labels, g.values) if v > -math.inf]
        fixed = all(
            float(pg.value(l)) == float(g.value(l)) for l in universe
        )
        assert (sol.status is not Status.NO_SOLUTION) == fixed


def test_minimal_solution_is_least():
    rng = random.Random(29)
    for _ in range(60):
        k = random_moreau_kernel(rng)
        g = random_function(rng, k.x_labels)
        prob = Problem(k, g)
        sol = solve(prob)
        if sol.status is Status.NO_SOLUTION:
            continue
        assert verify(prob, sol.f_min).is_solution
        if sol.witness_alt is not None:
            assert verify(prob, sol.witness_alt).is_solution
            assert not approx_eq(sol.witness_alt, sol.f_min)
            assert sol.f_min.leq(sol.witness_alt)
        # forced indices agree across solutions
        for y in sol.cover.essential:
            if sol.witness_alt is not None:
                assert float(sol.witness_alt.value(y)) == pytest.approx(
                    float(sol.f_min.value(y))
                )


def test_translation_equivariance():
    # additive kernels: shifting the coupling and the target by the same
    # constant leaves the minimal solution and the verdict unchanged
    rng = random.Random(31)
    from galois_solve import build_moreau

    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        bbar = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        gvals = [rng.randint(-3, 3) for _ in range(n)]
        c = rng.randint(-2, 2)
        k1 = build_moreau(bbar)
        k2 = build_moreau([[v + c for v in row] for row in bbar])
        g1 = FunctionOnSpace(k1.x_labels, np.array(gvals, dtype=float))
        g2 = FunctionOnSpace(k2.x_labels, np.array(gvals, dtype=float) + c)
        s1, s2 = solve(Problem(k1, g1)), solve(Problem(k2, g2))
        assert s1.status == s2.status
        assert np.array_equal(s1.f_min.values, s2.f_min.values)
        assert s1.family.sets == s2.family.sets
        assert s1.cover == s2.cover


def test_x_restrict_changes_verdict(demo_kernel, demo_g_bad):
    # restricted to the covered point the bad target becomes solvable
    sol = solve(Problem(demo_kernel, demo_g_bad, x_restrict=("x2",)))
    assert sol.status is not Status.NO_SOLUTION
    assert verify(
        Problem(demo_kernel, demo_g_bad, x_restrict=("x2",)), sol.f_min
    ).is_solution


# -- restricting Y: f = +inf off Y', against the kernel of the kept columns


def _kept_columns(kind, rng):
    """A kernel of the given kind, Y' as a mask over its columns, the
    kernel built from the kept columns alone (None when a row has no
    support there), a target and X'.  The target is B f0 for an f0 that
    is +inf off Y' on half of the cases, lowered by 1 at one x on a
    third of them."""
    if kind == "grid":
        grid = GridSpec.line(-2.0, 2.0, 0.25)
        family = FenchelDot() if rng.random() < 0.5 else OmegaLipschitz(1.0, 1.0)
        kernel = build_grid_kernel(family, grid, grid)
        table = kernel.bbar_row(slice(None))
        nx, ny = kernel.shape
        x_restrict = None
    else:
        build, rows, _, x_restrict = _permutable_case(rng, kind)
        kernel = build(rows)
        nx, ny = kernel.shape
    keep = rng.random(ny) < (0.2 if kind == "grid" else 0.6)
    keep[rng.integers(ny)] = True
    y_kept = [y for y, k in zip(kernel.y_labels, keep) if k]
    try:
        if kind == "grid":
            kept = Kernel(kernel.x_labels, y_kept, CouplingTable.stored(table[:, keep]))
        else:
            kept = build([list(np.array(r, dtype=object)[keep]) for r in rows],
                         kernel.x_labels, y_kept)
    except ValidationError:
        kept = None  # a row has no support in Y'
    f0 = rng.integers(-12, 13, ny) / 4
    if kind == "grid" and rng.random() < 0.5:
        f0 = 0.5 * grid.points() ** 2  # strictly convex: every y an argmax alone
    if rng.random() < 0.5:
        f0[~keep] = math.inf
    g = apply_forward(kernel, FunctionOnSpace(kernel.y_labels, f0)).values.copy()
    if rng.random() < 0.3:
        g[rng.integers(nx)] -= 1.0
    return kernel, keep, kept, FunctionOnSpace(kernel.x_labels, g), x_restrict


@pytest.mark.parametrize("kind,cases", [("moreau", 300), ("dyadic affine", 300),
                                        ("grid", 40)])
def test_y_restrict_matches_the_kernel_of_the_kept_columns(kind, cases):
    rng = np.random.default_rng(17)
    statuses = set()
    for _ in range(cases):
        kernel, keep, kept, g, x_restrict = _kept_columns(kind, rng)
        if kept is None:
            continue
        y_kept = kept.y_labels
        one = solve(Problem(kernel, g, x_restrict, y_kept))
        two = solve(Problem(kept, g, x_restrict))
        assert one.status == two.status
        statuses.add(one.status)
        assert one.f_min.values[keep].tobytes() == two.f_min.values.tobytes()
        assert np.all(np.isposinf(one.f_min.values[~keep]))
        assert one.family.index_pool == two.family.index_pool
        assert one.family.sets == two.family.sets
        assert one.cover == two.cover
        if kind == "grid":
            # equal up to a zero's sign: grid tables hold -0.0, and which
            # zero a row's maximum returns follows the reduction order,
            # which the columns off Y' (and the envelope path) change
            assert np.array_equal(one.transformed.values, two.transformed.values)
        else:
            assert one.transformed.values.tobytes() == two.transformed.values.tobytes()
        if two.witness_alt is None:
            assert one.witness_alt is None
        else:
            assert (one.witness_alt.values[keep].tobytes()
                    == two.witness_alt.values.tobytes())
            assert np.all(np.isposinf(one.witness_alt.values[~keep]))
    assert statuses == set(Status)


def test_rows_without_support_in_y_restrict_get_a_verdict():
    # x2 meets Y' = {y1} only at -inf: the kept columns break A1, but
    # f = +inf off Y' gives B f(x2) = -inf, a solution exactly when g(x2) is
    k = build_moreau([[0, "-inf"], ["-inf", 1]])
    with pytest.raises(ValidationError, match="A1"):
        build_moreau([[0], ["-inf"]])
    for g2, status, uncovered in ((1, Status.NO_SOLUTION, ("x2",)),
                                  ("-inf", Status.UNIQUE, ())):
        problem = Problem(k, FunctionOnSpace.from_mapping(k.x_labels, {"x1": 0, "x2": g2}),
                          y_restrict=("y1",))
        sol = solve(problem)
        assert sol.status is status
        assert sol.cover.uncovered == uncovered
        assert sol.f_min.values.tolist() == [0.0, math.inf]
        assert oracle_check(problem)


def test_y_restrict_labels_are_checked_and_may_be_empty(demo_kernel, demo_g):
    with pytest.raises(ValidationError, match=r"unknown y labels: \['y9'\]"):
        Problem(demo_kernel, demo_g, y_restrict=("y1", "y9"))
    # no index is left for a finite target; an all -inf target needs none
    empty = Problem(demo_kernel, demo_g, y_restrict=())
    assert empty.y_restrict == () and not empty.y_mask.any()
    sol = solve(empty)
    assert sol.status is Status.NO_SOLUTION
    assert sol.cover.uncovered == ("x1", "x2") and sol.family.index_pool == ()
    assert np.all(np.isposinf(sol.f_min.values))
    bottom = Problem(demo_kernel, constant(demo_kernel.x_labels, -math.inf), y_restrict=[])
    assert solve(bottom).status is Status.UNIQUE
    assert oracle_check(empty) and oracle_check(bottom)


# -- the thread pool gives the same answers as one thread

def _threaded_cases(monkeypatch):
    """Kernels with more than one block of outputs on both sides, so the
    pool runs in both directions, each with a target."""
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 0)  # threads at any size
    rng = np.random.default_rng(23)
    n = engine._BLOCK + 44

    def planted(bbar):
        """The coupling table with a planted target with both
        infinities: f0 = -inf on a column met by rows 5..8 only makes g
        +inf there, and row 11 meets only columns where f0 = +inf."""
        bbar[np.arange(n), np.arange(n)] = 0.0
        bbar[0, n:] = 1.0
        bbar[:, n] = -math.inf
        bbar[5:9, n] = 1.0
        bbar[11] = -math.inf
        bbar[11, :3] = 0.0
        moreau = build_moreau(bbar)
        f0 = rng.integers(0, 3, n + 5).astype(float)
        f0[:3] = math.inf
        f0[n] = -math.inf
        g = apply_forward(moreau, FunctionOnSpace(moreau.y_labels, f0)).values
        assert np.isposinf(g[5:9]).all() and np.isneginf(g[11])
        return moreau, g

    # dense coupling table with -inf entries
    bbar = rng.integers(-4, 5, (n, n + 5)).astype(float)
    bbar[rng.random(bbar.shape) < 0.3] = -math.inf
    moreau, g = planted(bbar)
    assert moreau.table.support is None
    yield moreau, g
    # the same table generated block by block, which the pool runs on
    lazy = Kernel(moreau.x_labels, moreau.y_labels, CouplingTable(
        lambda k: bbar[k].copy(), lambda k: bbar.T[k].copy(), bbar.shape))
    assert lazy.is_grid
    yield lazy, g
    # a sparse stored table, whose passes reduce its support alone
    sparse = rng.integers(-4, 5, (n, n + 5)).astype(float)
    sparse[rng.random(sparse.shape) >= 0.1] = -math.inf
    stored, g = planted(sparse)
    assert stored.table.support is not None
    yield stored, g

    # table of scalar forms, mostly off the support
    rows = []
    for i in range(n):
        row = [Off()] * n
        row[i] = Affine(float(rng.integers(-3, 4)), 1.0)
        for j in rng.choice(n, 3, replace=False):
            if j != i:
                row[j] = SignedPower(float(rng.integers(-3, 4)), 2.0)
        rows.append(row)
    table = build_table(rows)
    f0 = rng.integers(-2, 3, n).astype(float)
    yield table, apply_forward(table, FunctionOnSpace(table.y_labels, f0)).values

    # table of all four kinds of forms, with slopes other than 1
    kinds = rng.choice(4, size=(n, n + 3), p=[0.3, 0.3, 0.2, 0.2])
    kinds[np.arange(n), np.arange(n)] = 1
    kinds[0, n:] = 1
    c = rng.integers(-3, 4, kinds.shape).astype(float)
    m = rng.choice([0.5, 1.0, 2.0], kinds.shape)
    forms = [Off, lambda c, m: Affine(c, m), lambda c, m: SignedPower(c, m + 0.5, c / 4),
             lambda c, m: TabulatedDecreasing(((c, m), (c + 1, m - 2), (c + 3, m - 3)))]
    mixed = build_table([
        [Off() if k == 0 else forms[k](cv, mv) for k, cv, mv in zip(*row)]
        for row in zip(kinds.tolist(), c.tolist(), m.tolist())])
    f0 = rng.integers(-2, 3, n + 3).astype(float)
    yield mixed, apply_forward(mixed, FunctionOnSpace(mixed.y_labels, f0)).values

    # grid kernels: full-width generated blocks, and the column windows
    # of a Lipschitz line
    grid = GridSpec.line(-3.0, 3.0, 0.02)
    pts = grid.points()
    for q in (0.5, 1.0):
        lazy = build_grid_kernel(OmegaLipschitz(1.0, q), grid, grid)
        f0 = FunctionOnSpace(lazy.y_labels, 0.5 * np.abs(pts) + 0.1 * np.cos(pts))
        yield lazy, apply_forward(lazy, f0).values


def test_thread_count_does_not_change_solutions(monkeypatch):
    pooled = []  # the shares of blocks of one case sent to an executor

    class Spy(engine.ThreadPoolExecutor):
        def submit(self, fn, *args):
            pooled.append(fn)
            return super().submit(fn, *args)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", Spy)
    for kernel, g in _threaded_cases(monkeypatch):
        assert min(kernel.shape) > engine._BLOCK
        problem = Problem(kernel, FunctionOnSpace(kernel.x_labels, g))
        use_cpus(monkeypatch, 1)
        pooled.clear()
        one = solve(problem)
        assert not pooled
        use_cpus(monkeypatch, 2)
        two = solve(problem)
        assert pooled, "the threaded solve ran serially"
        assert one.status == two.status
        assert np.array_equal(one.f_min.values, two.f_min.values)
        assert one.family.sets == two.family.sets
        if one.witness_alt is None:
            assert two.witness_alt is None
        else:
            assert np.array_equal(one.witness_alt.values, two.witness_alt.values)


# -- solve on 1-D Lipschitz grids: the envelope path gives the residual
#    and re-verifies the witness; compare with the blocked reduction over
#    the same table


def _solve_or_error(problem):
    try:
        return solve(problem)
    except InternalError as exc:
        return str(exc)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_solve_on_lipschitz_line_matches_blocked_reduction(tol, offset):
    rng = np.random.default_rng(int(offset) % 97 + int(tol == 0))
    eps = np.finfo(float).eps
    multiple = 0
    for case in range(150):
        n = int(rng.integers(5, 60))
        step = float(rng.uniform(0.01, 0.7))
        lo = float(rng.uniform(-6.0, 2.0))
        grid = GridSpec.line(lo, lo + step * (n - 0.5), step)
        a = [1.0, 0.5, 2.0, 1 / 3][case % 4]
        k = build_grid_kernel(OmegaLipschitz(a, 1.0), grid, grid)
        plain = Kernel(k.x_labels, k.y_labels,
                       CouplingTable.stored(k.bbar_row(slice(None))))
        assert k.structure is not None and plain.structure is None
        # a sparse f leaves stretches of slope a in g: many solutions
        f0 = offset + 3.0 * rng.normal(size=n)
        f0[rng.random(n) < 0.6] = math.inf
        f0[0] = offset
        g = apply_forward(plain, FunctionOnSpace(k.y_labels, f0))
        fast = _solve_or_error(Problem(k, g, tolerance=tol))
        dense = _solve_or_error(Problem(plain, g, tolerance=tol))
        if isinstance(dense, str):
            assert fast == dense
            continue
        assert fast.status == dense.status
        assert np.array_equal(fast.f_min.values, dense.f_min.values)
        if dense.witness_alt is None:
            assert fast.witness_alt is None
        else:
            assert np.array_equal(fast.witness_alt.values,
                                  dense.witness_alt.values)
        # the residual B f_min, within the envelope's rounding bound
        pf, pd = fast.transformed.values, dense.transformed.values
        fin = np.isfinite(pd)
        assert np.array_equal(pf[~fin], pd[~fin]) and np.all(pf <= pd)
        lam = fast.f_min.values
        scale = 2 * a * np.abs(grid.points()).max() + np.abs(lam[np.isfinite(lam)]).max()
        assert np.all(pf[fin] >= pd[fin] - 8 * eps * scale)
        multiple += fast.status is Status.MULTIPLE
    assert multiple >= 100


# -- tie sets stay index arrays inside solve


def test_solve_never_reads_label_sets(monkeypatch, demo_kernel, demo_g, demo_g_bad):
    def refuse(self):
        raise AssertionError("label sets built inside solve")

    monkeypatch.setattr(covering.CoverFamily, "sets", property(refuse))
    assert solve(Problem(demo_kernel, demo_g)).status is Status.MULTIPLE
    restricted = Problem(demo_kernel, demo_g, y_restrict=("y1", "y2"))
    assert solve(restricted).status is Status.UNIQUE
    assert solve(Problem(demo_kernel, demo_g_bad)).status is Status.NO_SOLUTION


def test_solve_cuts_the_family_like_the_label_oracle():
    # X', the points where g = -inf and the indices where f_min = +inf
    # each cut the adjoint's family; the cut must be the family built
    # from its label sets
    rng = random.Random(23)
    restricted = pool_cut = points_cut = 0
    for _ in range(300):
        k = random_moreau_kernel(rng)
        g = random_function(rng, k.x_labels)
        xr = None
        if rng.random() < 0.5:
            xr = tuple(x for x in k.x_labels if rng.random() < 0.6)
        sol = solve(Problem(k, g, x_restrict=xr))
        top, full = engine.subdiff_inverse(k, g)
        universe = [x for x, v in zip(k.x_labels, g.values)
                    if v > -math.inf and (xr is None or x in xr)]
        pool = [y for y, v in zip(k.y_labels, top) if v < math.inf]
        want = covering.CoverFamily.build(universe, full.sets, pool)
        fam = sol.family
        assert (fam.universe, fam.index_pool) == (want.universe, want.index_pool)
        assert np.array_equal(fam.indptr, want.indptr)
        assert np.array_equal(fam.indices, want.indices)
        assert sol.cover == covering.check_cover(want)
        restricted += xr is not None and len(xr) < len(k.x_labels)
        pool_cut += len(pool) < len(k.y_labels)
        points_cut += np.isneginf(g.values).any()
    assert restricted > 50 and pool_cut > 50 and points_cut > 50


def test_multiple_verdict_counts_the_cover_once(monkeypatch, demo_kernel, demo_g):
    # check_cover and the witness's irredundant_subcover share one count
    families = []
    count = covering.CoverFamily._counts.func

    def counted(family):
        families.append(family)
        return count(family)

    prop = functools.cached_property(counted)
    prop.__set_name__(covering.CoverFamily, "_counts")
    monkeypatch.setattr(covering.CoverFamily, "_counts", prop)
    assert solve(Problem(demo_kernel, demo_g)).status is Status.MULTIPLE
    assert len(families) == 1


def test_worked_example_script(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "worked_example.py"
    spec = importlib.util.spec_from_file_location("worked_example", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    sections = capsys.readouterr().out.split("== ")[1:]
    assert [s.split("status: ")[1].split()[0] for s in sections] == [
        "multiple", "unique", "no_solution"]
    # restricted to Y' = {y1, y2}, the minimal solution is +inf at y3
    restricted = sections[1]
    assert restricted.startswith("restricted to two columns")
    assert "minimal solution: y1=-2.44948974278, y2=-1.33333333333, y3=+inf" in restricted
    assert "covering sets: {'y1': ['x2'], 'y2': ['x1']}" in restricted


# -- a table of unit-slope affine and off forms is a coupling table


def test_unit_affine_table_matches_moreau():
    rng = np.random.default_rng(41)
    statuses = set()
    for _ in range(80):
        nx, ny = (int(v) for v in rng.integers(1, 7, 2))
        c = rng.integers(-3, 4, (nx, ny)).astype(float)
        c[rng.random((nx, ny)) < 0.35] = -math.inf
        c[np.arange(nx), rng.integers(0, ny, nx)] = 0.0
        c[rng.integers(0, nx, ny), np.arange(ny)] = 1.0
        moreau = build_moreau(c.tolist())
        table = build_table([[make_affine(v) for v in row] for row in c.tolist()])
        vals = [-2.0, -1.0, 0.0, 1.0, 2.0, math.inf, -math.inf]
        targets = [rng.choice(vals, nx),
                   apply_forward(moreau, FunctionOnSpace(
                       moreau.y_labels, rng.choice(vals[:5], ny))).values]
        for g in targets:
            g = FunctionOnSpace(moreau.x_labels, g)
            a, b = solve(Problem(moreau, g)), solve(Problem(table, g))
            statuses.add(a.status)
            assert a.status == b.status
            assert a.f_min.values.tobytes() == b.f_min.values.tobytes()
            assert a.family.sets == b.family.sets
            assert (engine.subdiff_inverse(moreau, g)[1].sets
                    == engine.subdiff_inverse(table, g)[1].sets)
            if a.witness_alt is None:
                assert b.witness_alt is None
            else:
                assert a.witness_alt.values.tobytes() == b.witness_alt.values.tobytes()
    assert statuses == set(Status)


# -- permuting and relabelling X and Y changes no verdict


def _permutable_case(rng, kind):
    """Rows of a random table of the given kind, every row and column
    supported, with a target g = B f0 that is lowered by 1 at one x on
    about a third of the cases, and X' restricted on about a quarter."""
    nx, ny = (int(v) for v in rng.integers(1, 7, 2))
    support = rng.random((nx, ny)) < 0.7
    support[np.arange(nx), rng.integers(0, ny, nx)] = True
    support[rng.integers(0, nx, ny), np.arange(ny)] = True
    c = rng.integers(-4, 5, (nx, ny)).astype(float)
    if kind == "moreau":
        rows = np.where(support, c, -math.inf).tolist()
    elif kind == "dyadic affine":
        m = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], (nx, ny))
        rows = [[Affine(cv / 4, mv) if sv else Off() for cv, mv, sv in zip(*row)]
                for row in zip(c.tolist(), m.tolist(), support.tolist())]
    else:
        p = rng.choice([0.5, 1.0, 2.0, 3.0], (nx, ny))
        shift = rng.integers(-2, 3, (nx, ny)).astype(float)
        rows = [[SignedPower(cv, pv, hv) if sv else Off()
                 for cv, pv, hv, sv in zip(*row)]
                for row in zip(c.tolist(), p.tolist(), shift.tolist(), support.tolist())]
    build = build_moreau if kind == "moreau" else build_table
    f0 = rng.integers(-3, 4, ny).astype(float)
    f0[rng.random(ny) < 0.15] = math.inf
    kernel = build(rows)
    g = apply_forward(kernel, FunctionOnSpace(kernel.y_labels, f0)).values.copy()
    if rng.random() < 0.3:
        g[rng.integers(nx)] -= 1.0
    x_restrict = None
    if rng.random() < 0.25:
        x_restrict = [x for x in kernel.x_labels if rng.random() < 0.6]
    return build, rows, g, x_restrict


def _by_label(sol, x_name, y_name):
    return (sol.status,
            {y_name[y]: v for y, v in zip(sol.f_min.labels, sol.f_min.values.tolist())},
            {y_name[y]: frozenset(map(x_name.get, s)) for y, s in sol.family.sets.items()},
            {x_name[x]: (gv, pv) for x, gv, pv in zip(
                sol.target.labels, sol.target.values.tolist(), sol.transformed.values.tolist())},
            frozenset(map(y_name.get, sol.cover.essential)),
            frozenset(map(x_name.get, sol.cover.uncovered)))


# the witness is left out, and not built: its greedy subcover follows
# the index order, and on signed-power tables it can fail re-verification
# (pinned below)
@pytest.mark.parametrize("kind,tols", [("moreau", (0.0, 1e-9)),
                                       ("dyadic affine", (0.0, 1e-9)),
                                       ("signed power", (1e-9,))])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_and_relabelling_changes_no_verdict(kind, tols, seed):
    rng = np.random.default_rng(seed)
    build, rows, g, x_restrict = _permutable_case(rng, kind)
    nx, ny = len(rows), len(rows[0])
    px, py = rng.permutation(nx), rng.permutation(ny)
    # new names whose order is neither the old one nor the new positions
    x_new = [f"u{k}" for k in rng.permutation(nx)]
    y_new = [f"v{k}" for k in rng.permutation(ny)]
    kernel = build(rows)
    x_name = dict(zip(kernel.x_labels, x_new))
    y_name = dict(zip(kernel.y_labels, y_new))
    moved = build([[rows[i][j] for j in py] for i in px],
                  [x_new[i] for i in px], [y_new[j] for j in py])
    same_x, same_y = (dict(zip(labels, labels)) for labels in (x_new, y_new))
    restrict_moved = None if x_restrict is None else [x_name[x] for x in x_restrict]
    for tol in tols:
        with mock.patch.object(solver_mod, "_alternate_witness", lambda *args: None):
            one = solve(Problem(kernel, FunctionOnSpace(kernel.x_labels, g),
                                x_restrict, tolerance=tol))
            two = solve(Problem(moved, FunctionOnSpace(moved.x_labels, g[px]),
                                restrict_moved, tolerance=tol))
        assert _by_label(one, x_name, y_name) == _by_label(two, same_x, same_y)


# -- a common shift of the table and the target changes no verdict


@pytest.mark.parametrize("kind", ["moreau", "dyadic affine"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.sampled_from([0.5, -3.25, 1024.0, 2.0 ** -10, 7.0]))
def test_a_common_shift_changes_no_verdict(kind, seed, shift):
    """Adding a dyadic s to every finite entry and to g keeps every
    difference bbar - g exact, so the verdict, the covering, f_min and
    the witness are the same, at tol 0 and above it."""
    rng = np.random.default_rng(seed)
    build, rows, g, x_restrict = _permutable_case(rng, kind)
    if kind == "moreau":
        moved = [[v + shift for v in row] for row in rows]  # -inf stays
    else:
        moved = [[Affine(e.c + shift, e.m) if isinstance(e, Affine) else e for e in row]
                 for row in rows]
    for tol in (0.0, 1e-9):
        one, two = (solution_to_report(solve(Problem(
            k, FunctionOnSpace(k.x_labels, target), x_restrict, tolerance=tol)))
            for k, target in ((build(rows), g), (build(moved), g + shift)))
        for key in ("status", "cover", "f_min", "witness_alt"):
            assert one[key] == two[key], key


# The tie test compares fl(b°(y, x, g(x))) with f_min(y) - tol on the
# adjoint side, while verify compares fl(b(x, y, f_min(y))) with g(x) on
# the forward side, so a witness built from the ties can fail verify.
# At tol 0, (sqrt 5)**2 rounds to 5.000000000000001 and the witness that
# keeps only y2 misses g(x1) = 4 by one ulp.  At the default tol, x1 ties
# for y1 within 1e-9 of the adjoint, but the square root's slope there
# turns that into a miss of 2e-8 on the forward side.
@pytest.mark.xfail(strict=True, raises=InternalError,
                   reason="the tie test and verify measure ties on different sides")
@pytest.mark.parametrize("rows,g,tol", [
    ([[SignedPower(0, 2), SignedPower(-1, 2)]], [4.0], 0.0),
    ([[SignedPower(-2, 0.5, -2), SignedPower(2, 3, -2)],
      [SignedPower(-3, 3, 2), SignedPower(2, 0.5, 1)]], [-2.0, 61.0], DEFAULT_TOL),
], ids=["tol-0", "default-tol"])
def test_witness_of_a_signed_power_table_passes_verify(rows, g, tol):
    # g = B f0 for f0 = (-2, 2)
    kernel = build_table(rows)
    problem = Problem(kernel, FunctionOnSpace(kernel.x_labels, np.array(g)),
                      tolerance=tol)
    sol = solve(problem)
    assert verify(problem, sol.f_min).is_solution
    assert sol.witness_alt is None or verify(problem, sol.witness_alt).is_solution


# The same miss on a grid kernel.  At tol 0, f_min rounds on the adjoint
# side so that B f_min reads 0.16666666666666674 at x = 1 on the forward
# side, above g = 0.16666666666666669 there, and the witness fails
# re-verification.  At the default tol the solve gives `multiple`.
@pytest.mark.xfail(strict=True, raises=InternalError,
                   reason="the tie test and verify measure ties on different sides")
def test_witness_of_a_fenchel_grid_passes_verify():
    grid = GridSpec.line(-1, 1, 0.5)
    kernel = build_grid_kernel(FenchelDot(), grid, grid)
    g = np.array([2, 1.5, 1, 0.5, 0.16666666666666669])
    problem = Problem(kernel, FunctionOnSpace(kernel.x_space, g), tolerance=0.0)
    sol = solve(problem)
    assert verify(problem, sol.f_min).is_solution
    assert sol.witness_alt is None or verify(problem, sol.witness_alt).is_solution
