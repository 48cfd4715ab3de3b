import math
import random

import numpy as np
import pytest

import galois_solve.engine as engine
from galois_solve import FunctionOnSpace, build_moreau, build_table
from galois_solve.extreal import DEFAULT_TOL, close
from galois_solve.kernel import (
    CouplingTable,
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    Quadratic,
    WeightedPower,
    build_grid_kernel,
)
from galois_solve.scalar import Affine, SignedPower

SQRT6 = math.sqrt(6.0)
SQRT3 = math.sqrt(3.0)


@pytest.fixture
def demo_kernel():
    """The 2x3 kernel with one signed-square column used throughout:
    rows x1, x2; slices (-l, 4-3l, 2-l) and (-sgn(l)l^2, 3-l, -l)."""
    return build_table([
        [Affine(0, 1), Affine(4, 3), Affine(2, 1)],
        [SignedPower(0, 2), Affine(3, 1), Affine(0, 1)],
    ])


@pytest.fixture
def demo_g(demo_kernel):
    return FunctionOnSpace.from_mapping(demo_kernel.x_labels, {"x1": 8, "x2": 6})


@pytest.fixture
def demo_g_bad(demo_kernel):
    return FunctionOnSpace.from_mapping(demo_kernel.x_labels, {"x1": 3, "x2": -3})


def random_moreau_kernel(rng: random.Random, max_side: int = 6):
    """Random integer coupling table in {-3..3, -inf} with every row and
    column repaired to keep a finite entry."""
    nx = rng.randint(1, max_side)
    ny = rng.randint(1, max_side)
    vals = [-math.inf] + list(range(-3, 4))
    bbar = [[rng.choice(vals) for _ in range(ny)] for _ in range(nx)]
    for i in range(nx):
        if all(v == -math.inf for v in bbar[i]):
            bbar[i][rng.randrange(ny)] = rng.randint(-3, 3)
    for j in range(ny):
        if all(bbar[i][j] == -math.inf for i in range(nx)):
            bbar[rng.randrange(nx)][j] = rng.randint(-3, 3)
    return build_moreau(bbar)


def constant(labels, value):
    """The function equal to ``value`` on every label."""
    return FunctionOnSpace(labels, np.full(len(labels), float(value)))


def dirac(labels, at, value):
    """The function equal to ``value`` at ``at`` and +inf elsewhere."""
    vals = np.full(len(labels), math.inf)
    vals[list(labels).index(at)] = value
    return FunctionOnSpace(labels, vals)


def approx_eq(a, b, tol=DEFAULT_TOL):
    """Equality of two functions on one space up to ``extreal.close``."""
    assert a.labels == b.labels
    return bool(close(a.values, b.values, tol).all())


def random_function(rng: random.Random, labels, allow_inf=True):
    choices = list(range(-3, 4))
    if allow_inf:
        choices += [math.inf, -math.inf]
    return FunctionOnSpace(labels, np.array([
        float(rng.choice(choices)) for _ in labels
    ]))


# grid kernels of every family and supported dimension, small enough to
# store as an oracle

LINE_X = GridSpec.line(-1.3, 1.7, 0.1)
LINE_Y = GridSpec.line(-2.0, 2.0, 0.125)
PLANE_X = GridSpec(((-1.0, 1.0, 0.25), (-0.5, 1.0, 0.25)))
PLANE_Y = GridSpec(((-1.5, 1.5, 0.375), (-1.0, 0.75, 0.25)))
WEIGHTED_X = GridSpec(((-1.0, 1.0, 0.2), (0.5, 2.0, 0.5)))
#: a 2-D product whose dot products round, unlike those of the dyadic
#: planes above, so that a change in rounding order shows
ROUNDING_PLANE = GridSpec(((-1.0, 1.0, 0.3), (-0.7, 0.9, 0.1)))

FAMILY_GRIDS = [
    (FenchelDot(), LINE_X, LINE_Y),
    (FenchelDot(), PLANE_X, PLANE_Y),
    (Quadratic(0.7), LINE_X, LINE_Y),
    (Quadratic(0.7), PLANE_X, PLANE_Y),
    (OmegaLipschitz(1.0, 1.0), LINE_X, LINE_Y),
    (OmegaLipschitz(1.0, 1.0), PLANE_X, PLANE_Y),
    (OmegaLipschitz(1.5, 0.5), LINE_X, LINE_Y),
    (OmegaLipschitz(0.8, 0.3), PLANE_X, PLANE_Y),
    (WeightedPower(1.5), WEIGHTED_X, LINE_Y),
    (WeightedPower(1.0), WEIGHTED_X, LINE_Y),
    (FenchelDot(), ROUNDING_PLANE, ROUNDING_PLANE),
    (Quadratic(0.7), ROUNDING_PLANE, PLANE_Y),
    (OmegaLipschitz(1.0, 1.0), PLANE_X, ROUNDING_PLANE),
]
FAMILY_IDS = [f"{f!r}-{'rounding-' * (ROUNDING_PLANE in (x, y))}{x.ndim}d"
              for f, x, y in FAMILY_GRIDS]


def use_cpus(monkeypatch, n):
    """Make the engine see ``n`` CPUs that the process may run on."""
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def stored_and_generated(family, x_grid, y_grid):
    """The family's kernel with its table stored, the oracle, and as
    built, its table generated in blocks.  The oracle keeps the
    kernel's structure, so that both take the same transforms."""
    generated = build_grid_kernel(family, x_grid, y_grid)
    stored = Kernel(generated.x_labels, generated.y_labels,
                    CouplingTable.stored(generated.bbar_row(slice(None))),
                    structure=generated.structure)
    assert generated.table.lazy and not stored.table.lazy
    return stored, generated
