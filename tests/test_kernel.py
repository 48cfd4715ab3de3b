import math
import random

import numpy as np
import pytest

from conftest import FAMILY_GRIDS, FAMILY_IDS, dense_and_lazy, random_moreau_kernel
from galois_solve.errors import ValidationError
from galois_solve.kernel import (
    DENSE_LIMIT,
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
from galois_solve.scalar import Affine, DualPair, Off, SignedPower


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


def test_build_moreau_takes_numpy_scalars():
    row = [np.float32(1.5), np.int64(-2), np.int8(3), np.uint16(4), np.float64(0.25), "-inf"]
    k = build_moreau([row, [0] * len(row)])
    assert k.bbar_row(0).tolist() == [1.5, -2.0, 3.0, 4.0, 0.25, -math.inf]


def test_coupling_table_is_copied_and_checked():
    arr = np.array([[0.0, -math.inf], [1.0, 2.0]])
    k = Kernel(("a", "b"), ("c", "d"), bbar=arr)
    arr[0, 0] = 5.0
    assert k.bbar_row(0)[0] == 0.0 and arr.flags.writeable
    for bad, msg in ((math.inf, "R u"), (math.nan, "NaN")):
        arr[1, 1] = bad
        with pytest.raises(ValidationError, match=msg):
            Kernel(("a", "b"), ("c", "d"), bbar=arr)


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
                assert DualPair.of(k.entry(i, j)).adjunction_holds()


def test_restrict_demo(demo_kernel):
    k12 = demo_kernel.restrict(["y1", "y2"])
    assert k12.y_labels == ("y1", "y2")
    assert k12.x_labels == demo_kernel.x_labels
    assert isinstance(k12.entry(1, 0), SignedPower)


def test_restrict_full_is_identity(demo_kernel):
    k = demo_kernel.restrict(demo_kernel.y_labels)
    assert k.y_labels == demo_kernel.y_labels
    for i in range(2):
        for j in range(3):
            assert k.entry(i, j) == demo_kernel.entry(i, j)


def test_restrict_idempotent_on_nested(demo_kernel):
    a = demo_kernel.restrict(["y1", "y2"]).restrict(["y1"])
    b = demo_kernel.restrict(["y1"])
    assert a.y_labels == b.y_labels == ("y1",)


def test_restrict_empty_fails(demo_kernel):
    with pytest.raises(ValidationError):
        demo_kernel.restrict([])


def test_restrict_breaking_a1_fails():
    k = build_moreau([[0, "-inf"], ["-inf", 1]])
    with pytest.raises(ValidationError, match="A1"):
        k.restrict([k.y_labels[0]])


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
    assert k._bbar is None  # lazily computed
    assert k.bbar_row(5)[7] == pytest.approx(g.points()[5] * g.points()[7])
    r = k.restrict(k.y_labels[:100])
    assert r.shape == (k.shape[0], 100)
    assert r.bbar_row(5)[7] == k.bbar_row(5)[7]


# -- lazy blocks against the dense table, bit for bit

@pytest.mark.parametrize("family,x_grid,y_grid", FAMILY_GRIDS, ids=FAMILY_IDS)
def test_lazy_blocks_equal_dense_table(monkeypatch, family, x_grid, y_grid):
    dense, lazy = dense_and_lazy(monkeypatch, family, x_grid, y_grid)
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
    keep = lazy.y_labels[::3]
    r_dense, r_lazy = dense.restrict(keep), lazy.restrict(keep)
    assert np.array_equal(r_lazy.bbar_row(slice(None)), table[:, ::3])
    assert np.array_equal(r_lazy.bbar_col(slice(2, 7)), table[:, ::3][:, 2:7].T)
    assert np.array_equal(r_dense.bbar_row(slice(None)), table[:, ::3])
