import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_GRIDS, FAMILY_IDS, random_moreau_kernel, stored_and_generated
from test_scalar import adjunction_holds
from galois_solve import kernel as kernel_mod
from galois_solve.errors import ValidationError
from galois_solve.kernel import (
    DENSE_LIMIT,
    CouplingTable,
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    Quadratic,
    WeightedPower,
    build_grid_kernel,
    build_moreau,
    build_table,
)
from galois_solve.engine import FunctionOnSpace, apply_adjoint, sup_pass
from galois_solve.scalar import Affine, Off, SignedPower, TabulatedDecreasing


def test_build_moreau_identity_like():
    k = build_moreau([[0]])
    assert k.shape == (1, 1)
    e = k.entry(0, 0)
    assert isinstance(e, Affine) and e.c == 0 and e.m == 1


def test_build_moreau_rejects_empty_row():
    with pytest.raises(ValidationError, match="A1"):
        build_moreau([[-math.inf, -math.inf], [0, 1]])


def test_build_moreau_rejects_empty_column():
    with pytest.raises(ValidationError, match="A2"):
        build_moreau([[-math.inf, 2], ["-inf", 1]])


def test_build_moreau_rejects_pos_inf():
    with pytest.raises(ValidationError):
        build_moreau([[math.inf]])


@pytest.mark.parametrize("entry", [True, False, np.True_, "1.5", " 2 ", "inf", "+inf", "nan", ""])
def test_build_moreau_entries_are_numbers_or_neg_inf(entry):
    with pytest.raises(ValidationError):
        build_moreau([[0, entry]])


@pytest.mark.parametrize("bbar", [[[0, math.nan]], [[0, None]], [[0, 10**400]], 5, [5]],
                         ids=["nan", "none", "huge-int", "not-a-list", "row-not-a-list"])
def test_build_moreau_refuses_malformed_tables_as_validation_errors(bbar):
    with pytest.raises(ValidationError, match="coupling table"):
        build_moreau(bbar)


def test_build_table_refuses_a_ragged_table():
    with pytest.raises(ValidationError, match="entry table must be rectangular"):
        build_table([[Affine(0, 1), Affine(1, 1)], [Affine(2, 1)]])


def test_build_moreau_takes_numpy_scalars():
    row = [np.float32(1.5), np.int64(-2), np.int8(3), np.uint16(4), np.float64(0.25), "-inf"]
    k = build_moreau([row, [0] * len(row)])
    assert k.bbar_row(0).tolist() == [1.5, -2.0, 3.0, 4.0, 0.25, -math.inf]


def test_coupling_table_is_copied_and_checked():
    arr = np.array([[0.0, -math.inf], [1.0, 2.0]])
    k = Kernel(("a", "b"), ("c", "d"), CouplingTable.stored(arr))
    arr[0, 0] = 5.0
    assert k.bbar_row(0)[0] == 0.0 and arr.flags.writeable
    for bad, msg in ((math.inf, "R u"), (math.nan, "NaN")):
        arr[1, 1] = bad
        with pytest.raises(ValidationError, match=msg):
            Kernel(("a", "b"), ("c", "d"), CouplingTable.stored(arr))


@pytest.mark.parametrize("form", [
    {"type": "affine", "c": 0, "m": 2.2250738585e-313},
    {"type": "affine", "c": 1e300, "m": 1e-10},
    {"type": "signed_power", "c": 0, "p": 1e-320},
], ids=["affine-slope", "affine-offset", "power-exponent"])
def test_forms_whose_adjoint_overflows_are_refused(form):
    with pytest.raises(ValidationError, match="adjoint overflows"):
        build_table([[form, {"type": "affine", "c": 0, "m": 1}]])


def test_build_table_rejects_other_forms():
    class Doubled(Affine):
        pass

    with pytest.raises(ValidationError, match="not a scalar form"):
        build_table([[Doubled(1.0, 2.0)]])


def test_build_table_demo_support(demo_kernel):
    assert [demo_kernel.support_row(i) for i in range(2)] == [(0, 1, 2)] * 2


def test_build_table_column_of_off():
    with pytest.raises(ValidationError, match="A2"):
        build_table([[Affine(1, 1), Off()], [Affine(0, 1), Off()]])


def test_demo_adjoint_table(demo_kernel):
    # printed adjoint table of the worked example, spot-checked
    k = demo_kernel
    assert k.adjoint_entry(0, 0).eval_float(8) == -8            # -t
    assert k.adjoint_entry(0, 1).eval_float(6) == pytest.approx(-math.sqrt(6))
    assert k.adjoint_entry(1, 0).eval_float(8) == pytest.approx((4 - 8) / 3)
    assert k.adjoint_entry(1, 1).eval_float(6) == -3            # 3 - t
    assert k.adjoint_entry(2, 0).eval_float(8) == -6            # 2 - t
    assert k.adjoint_entry(2, 1).eval_float(6) == -6            # -t


def test_moreau_adjoint_symmetry():
    rng = random.Random(3)
    for _ in range(25):
        k = random_moreau_kernel(rng)
        for i in range(k.shape[0]):
            row = k.bbar_row(i)
            for j in k.support_row(i):
                adj = k.adjoint_entry(j, i)
                for t in (-2.0, 0.0, 1.5):
                    assert adj.eval_float(t) == pytest.approx(row[j] - t)


def test_support_entries_pass_adjunction():
    rng = random.Random(5)
    for _ in range(10):
        k = random_moreau_kernel(rng, max_side=4)
        for i in range(k.shape[0]):
            for j in k.support_row(i):
                assert adjunction_holds(k.entry(i, j))


# -- grids


def test_gridspec_points_count():
    g = GridSpec.line(-2, 2, 0.5)
    assert g.size() == 9
    assert np.allclose(g.points(), np.arange(-2, 2.25, 0.5))
    assert g.labels()[0] == "-2"


def test_gridspec_labels_cached_per_grid():
    g = GridSpec.line(-2, 2, 0.5)
    assert g.labels() is g.labels()
    assert g == GridSpec.line(-2, 2, 0.5) and hash(g) == hash(GridSpec.line(-2, 2, 0.5))
    plane = GridSpec(((0, 1, 0.5), (0, 1, 1)))
    assert plane.labels() is plane.labels()
    assert plane.labels()[:2] == ("(0,0)", "(0,1)")


def test_grid_finer_than_its_labels_is_refused():
    # 100 points, but only 2 distinct labels at 12 significant digits
    g = GridSpec.line(1e6, 1e6 + 1e-5, 1e-7)
    assert g.size() == 100
    with pytest.raises(ValidationError, match=r"grid .* step below label precision"):
        build_grid_kernel(FenchelDot(), g, GridSpec.line(0, 1, 0.5))
    plane = GridSpec(((0, 1, 0.5), (1e6, 1e6 + 1e-5, 1e-7)))
    with pytest.raises(ValidationError, match="on axis 1"):
        plane.labels()


def _labels_collide(grid: GridSpec) -> bool:
    """The check that formats every label: two points of an axis share one."""
    for k in range(grid.ndim):
        labels = [format(v, ".12g") for v in grid.axis(k).tolist()]
        if len(set(labels)) < len(labels):
            return True
    return False


# an axis whose step is 1.25**k times the bound 2e-11 * |first point|,
# from 0.01 to 6 times it, at magnitudes from 1e-12 to 1e12 and
# mantissas up to 10, where the 12th digit rounds over
axes_near_the_bound = st.tuples(
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-12, 12),
    st.floats(-20.0, 8.0), st.integers(2, 30))


@settings(max_examples=300, deadline=None)
@given(st.lists(axes_near_the_bound, min_size=1, max_size=2))
def test_label_precision_refuses_exactly_the_grids_whose_labels_collide(axes):
    dims = []
    for sign, mantissa, exp, k, n in axes:
        first = sign * mantissa * 10.0 ** exp
        step = 1.25 ** k * 2e-11 * abs(first)
        dims.append((first, first + step * (n - 0.5), step))
    grid = GridSpec(tuple(dims))
    other = GridSpec(((0, 1, 0.5),) * grid.ndim)
    try:
        build_grid_kernel(FenchelDot(), grid, other)
        refused = False
    except ValidationError as exc:
        assert "step below label precision" in str(exc)
        refused = True
    assert refused == _labels_collide(grid)


def test_grid_kernels_format_labels_when_first_read():
    x, y = GridSpec.line(-1, 1, 0.5), GridSpec.line(0, 2, 1)
    k = build_grid_kernel(FenchelDot(), x, y)
    assert "_labels" not in vars(x) and "_labels" not in vars(y)
    assert k.x_space is x and k.dual.y_space is x and k.shape == (5, 3)
    assert k.x_labels is x.labels() and k.dual.x_labels == ("0", "1", "2")


def test_gridspec_validation():
    with pytest.raises(ValidationError):
        GridSpec.line(0, 1, 0)
    with pytest.raises(ValidationError):
        GridSpec.line(1, 0, 0.1)
    with pytest.raises(ValidationError):
        GridSpec.line(0, 1e6, 1e-4)  # 10^10 points
    # spans whose step count overflows to inf are refused before counting
    for lo, hi, step in ((-1.7e308, 1.7e308, 1.0), (-1, 1, 1e-320), (-math.inf, 0, 1)):
        with pytest.raises(ValidationError, match="over the cap"):
            GridSpec.line(lo, hi, step)
    # a dimension that is not three numbers names the grid
    for build in (lambda: GridSpec(((0, 1),)),
                  lambda: GridSpec.from_dict({"dims": [[0, 1]]}),
                  lambda: GridSpec(((0, 1, "a"),))):
        with pytest.raises(ValidationError, match=r"grid .*three numbers"):
            build()


def test_fenchel_dot_grid_kernel():
    g = GridSpec.line(-2, 2, 0.5)
    k = build_grid_kernel(FenchelDot(), g, g)
    i, j = 1, 7  # x=-1.5, y=1.5
    assert k.bbar_row(i)[j] == pytest.approx(-2.25)
    assert k.is_moreau and k.is_grid


def test_quadratic_grid_kernel():
    g = GridSpec.line(-1, 1, 0.5)
    k = build_grid_kernel(Quadratic(1.0), g, g)
    pts = g.points()
    for i in range(len(pts)):
        assert np.allclose(k.bbar_row(i), pts[i] * pts - 0.5 * pts * pts)


def test_omega_kernel_value():
    g = GridSpec.line(-6, 8, 1.0)
    k = build_grid_kernel(OmegaLipschitz(1.0, 1.0), g, g)
    pts = g.points()
    assert np.allclose(k.bbar_row(3), -np.abs(pts - pts[3]))


def test_omega_parameter_validation():
    with pytest.raises(ValidationError):
        OmegaLipschitz(a=-1.0)
    with pytest.raises(ValidationError):
        OmegaLipschitz(q=1.5)
    with pytest.raises(ValidationError):
        OmegaLipschitz(q=0.0)


def test_weighted_power_kernel_shape():
    x = GridSpec((( -1.0, 1.0, 1.0), (0.5, 2.0, 0.5)))
    y = GridSpec.line(-2, 2, 1.0)
    k = build_grid_kernel(WeightedPower(1.0), x, y)
    assert k.shape == (x.size(), y.size())
    # first x point is (-1, 0.5): row is -0.5*|y+1|
    assert np.allclose(k.bbar_row(0), -0.5 * np.abs(y.points() + 1))


def test_weighted_power_needs_positive_weights():
    x = GridSpec(((0.0, 1.0, 1.0), (0.0, 2.0, 0.5)))
    y = GridSpec.line(-1, 1, 1.0)
    with pytest.raises(ValidationError):
        build_grid_kernel(WeightedPower(1.0), x, y)


def test_lazy_kernel_above_limit():
    n = int(math.isqrt(DENSE_LIMIT)) + 10
    g = GridSpec.line(0.0, 1.0, 1.0 / (n - 1))
    k = build_grid_kernel(FenchelDot(), g, g)
    assert k.shape[0] * k.shape[1] > DENSE_LIMIT
    assert k.is_grid  # lazily computed
    assert k.bbar_row(5)[7] == pytest.approx(g.points()[5] * g.points()[7])


# -- lazy blocks against the stored table, bit for bit

@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_lazy_blocks_equal_dense_table(family, x_grid, y_grid):
    dense, lazy = stored_and_generated(family, x_grid, y_grid)
    table = dense.bbar_row(slice(None))
    nx, ny = table.shape
    assert np.array_equal(lazy.bbar_row(slice(None)), table)
    assert np.array_equal(lazy.bbar_col(slice(None)), table.T)
    for lo, hi in ((0, 5), (3, 17), (nx - 4, nx)):
        assert np.array_equal(lazy.bbar_row(slice(lo, hi)), table[lo:hi])
    for lo, hi in ((0, 5), (3, 17), (ny - 4, ny)):
        assert np.array_equal(lazy.bbar_col(slice(lo, hi)), table[:, lo:hi].T)
    for i in (0, nx // 2, nx - 1):
        assert np.array_equal(lazy.bbar_row(i), table[i])
    for j in (0, ny // 2, ny - 1):
        assert np.array_equal(lazy.bbar_col(j), table[:, j])
        assert np.array_equal(dense.bbar_col(j), table[:, j])


# -- grid families are checked at build, at their grids' corners


@pytest.mark.parametrize("a", [1 / 3, 0.7])
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_lipschitz_grids_are_accepted_at_every_scale(a, q):
    for e in range(13):
        s = 10.0 ** e
        g = GridSpec.line(-s, s, s / 50)
        k = build_grid_kernel(OmegaLipschitz(a, q), g, g)
        assert np.isfinite(k.bbar_row(slice(None))).all()


OVERFLOWING = [
    (Quadratic(1e308), GridSpec.line(-2, 2, 0.04), GridSpec.line(-2, 2, 0.04)),
    (FenchelDot(), GridSpec.line(-1e200, 1e200, 4e198), GridSpec.line(-1e200, 1e200, 4e198)),
    (OmegaLipschitz(1e300), GridSpec.line(-1e10, 1e10, 1e9), GridSpec.line(-1e10, 1e10, 1e9)),
    (WeightedPower(1000.0), GridSpec(((-2.0, 2.0, 1.0), (1.0, 3.0, 1.0))),
     GridSpec.line(-2, 2, 1.0)),
]


def _build_outcome(family, x_grid, y_grid):
    """The kernel built, or the message it was refused with."""
    try:
        return build_grid_kernel(family, x_grid, y_grid)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS + OVERFLOWING,
                         ids=FAMILY_IDS + [f"overflow-{f!r}" for f, _, _ in OVERFLOWING])
def test_grid_tables_are_finite_or_refused(family, x_grid, y_grid):
    outcome = _build_outcome(family, x_grid, y_grid)
    if (family, x_grid, y_grid) in OVERFLOWING:
        assert isinstance(outcome, str) and "overflows" in outcome
        return
    assert np.isfinite(outcome.bbar_row(slice(None))).all()


def _random_grid(rng, ndim, u):
    """A grid of 2 to 6 points per axis, its bounds near -10^u and 10^u."""
    dims = []
    for _ in range(ndim):
        lo, hi = -(10.0 ** (u - rng.uniform(0, 1))), 10.0 ** (u - rng.uniform(0, 1))
        dims.append((lo, hi, (hi - lo) / (rng.integers(2, 7) - 0.5)))
    return GridSpec(tuple(dims))


def test_corner_check_refuses_exactly_the_tables_that_overflow():
    """The build refuses exactly the families and grids whose whole
    table, by the family's own formula, has an entry that is not finite.
    Their largest entries are aimed at 10^t, t from 305 to 311, around
    the end of the float range."""
    rng = np.random.default_rng(5)
    refused = 0
    for case in range(400):
        kind, ndim, t = case % 4, int(rng.integers(1, 3)), rng.uniform(305, 311)
        u = max(rng.uniform(0, 150), t - 300)  # every bound stays below 1e300
        y_grid = _random_grid(rng, 1 if kind == 3 else ndim, u)
        if kind == 0:
            family, x_grid = FenchelDot(), _random_grid(rng, ndim, t - u)
        elif kind == 1:
            family = Quadratic(float(rng.choice([-1, 1]) * 10.0 ** min(t - 2 * u, 307)))
            x_grid = _random_grid(rng, ndim, u)
        elif kind == 2:
            q = rng.uniform(0.05, 1.0)
            family = OmegaLipschitz(10.0 ** min(t - q * u, 307), q)
            x_grid = _random_grid(rng, ndim, u)
        else:
            family, v = WeightedPower(10.0 ** rng.uniform(-1, 2.5)), rng.uniform(0, 50)
            y_grid = _random_grid(rng, 1, min((t - v) / family.p, 200))
            n = rng.integers(2, 7)
            x_grid = GridSpec(y_grid.dims + ((10.0 ** v, 10.0 ** v * (n - 0.5), 10.0 ** v),))
        with np.errstate(all="ignore"):
            table = kernel_mod._family_block(family, x_grid.points(), y_grid.points())(
                slice(None), True)
        outcome = _build_outcome(family, x_grid, y_grid)
        assert isinstance(outcome, str) == (not np.isfinite(table).all()), (family, x_grid)
        refused += isinstance(outcome, str)
    assert 100 < refused < 300


# -- the dual: the kernel b° over Y x X whose forward map is the adjoint


def _table_of_all_forms():
    return build_table([
        [Affine(1.0, 2.5), Off(), SignedPower(0.5, 1.5, -0.25), Affine(0.0, 1.0)],
        [TabulatedDecreasing(((0.0, 1.0), (1.0, -1.0), (3.0, -2.0))), Affine(-1.0, 1.0),
         Off(), SignedPower(-2.0, 0.5, 1.0)],
        [Off(), Affine(2.0, 0.5), TabulatedDecreasing(((-1.0, 0.5), (2.0, -3.0))), Off()],
    ])


DUAL_CASES = [
    lambda: build_moreau([[1.5, "-inf", 0.0, -2.0], ["-inf", 2.0, -1.0, "-inf"],
                          [3.0, "-inf", "-inf", 0.25]]),
    _table_of_all_forms,
] + [lambda f=f, x=x, y=y: build_grid_kernel(f, x, y) for f, x, y in FAMILY_GRIDS]
DUAL_IDS = ["moreau", "table"] + FAMILY_IDS


@pytest.mark.parametrize("make", DUAL_CASES, ids=DUAL_IDS)
def test_dual_is_the_adjoint_kernel(make):
    k = make()
    d = k.dual
    assert d is k.dual and d.dual is k
    assert d.shape == k.shape[::-1]
    assert (d.x_labels, d.y_labels) == (k.y_labels, k.x_labels)
    assert (d.is_grid, d.is_moreau) == (k.is_grid, k.is_moreau)
    if k.structure is None:
        assert d.structure is None
    else:  # the same rule, on the transposed table
        assert type(d.structure) is type(k.structure)
        assert d.structure.scale == k.structure.scale
        assert d.structure.dual.scale == k.structure.scale
    nx, ny = k.shape
    rng = np.random.default_rng(nx * ny)
    g = rng.normal(size=nx)
    g[::5], g[1::7] = math.inf, -math.inf
    want = apply_adjoint(k, FunctionOnSpace(k.x_labels, g)).values
    assert want.tobytes() == sup_pass(d, g)[0].tobytes()
    for i in range(0, nx, max(1, nx // 5)):
        for j in range(0, ny, max(1, ny // 5)):
            assert k.adjoint_entry(j, i) == k.entry(i, j).adjoint()


@pytest.mark.parametrize("make", DUAL_CASES[:2], ids=DUAL_IDS[:2])
def test_a_stored_dual_reads_views_made_at_build(make):
    k = make()
    first, second = (k.dual.slices().offsets(slice(1, 3)) for _ in range(2))
    assert np.shares_memory(first, second)
    assert not (first.flags.writeable or second.flags.writeable)
    # the same support, transposed
    assert np.array_equal(np.isfinite(k.dual.slices().offsets(slice(None))),
                          np.isfinite(k.slices().offsets(slice(None))).T)
