"""Finite kernels over X x Y with explicit support tracking.

A kernel assigns every index pair a scalar slice; the support set S is
exactly the set of pairs whose slice is not the constant -inf.  Validity
means: every row and every column meets the support (so the transforms
never take an empty supremum), slices on the support are bijective, and
slices off the support are Off.

A :class:`Kernel` holds one table, stored (read from a file) or
generated (a grid family's): a :class:`FormTable` of scalar forms as
typed parameter arrays, or a :class:`CouplingTable` bbar(x, y), every
slope 1.  Both give the engine their slices as :class:`Slices`: blocks
of offsets c with the slices c - m*lam, plus the entries of other forms
as typed parameter arrays.  The adjoint is the forward map of
:attr:`Kernel.dual`, whose table is made at build.  The kernel checks
A1 and A2 on every stored table; a grid family is checked at its
grids' corners, so that its table is finite.  A kernel always spans
the whole of X and Y: a restriction of either side belongs to the
problem (see :class:`galois_solve.solver.Problem`).  Each side is a
space: the tuple of labels given, or the :class:`GridSpec` of a grid
kernel, which formats its labels only when they are first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .extreal import as_extreal, parse
from .scalar import (
    Affine,
    Off,
    ScalarConnection,
    SignedPower,
    TabulatedDecreasing,
    conn_from_dict,
    make_affine,
    signed_power_values,
    tabulated_values,
)

#: A pass over more than this many entries, of any table, runs on
#: threads (see :func:`galois_solve.engine.run_spans`); smaller ones run
#: serially.  It sits above one block of 256 rows of a table of a few
#: hundred columns, which a second thread was measured to slow down, and
#: near where threads began to gain on a 2-CPU machine.
DENSE_LIMIT = 2**18

#: Hard cap on grid sizes (per GridSpec, all dimensions multiplied).
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid, one (min, max, step) triple per dimension; its
    length is its number of points."""

    dims: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        try:
            dims = tuple((float(a), float(b), float(s)) for a, b, s in self.dims)
        except (TypeError, ValueError):
            raise ValidationError(
                f"grid {self.dims!r}: each dimension must be three numbers "
                "(min, max, step)") from None
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("grid needs at least one dimension")
        for a, b, s in dims:
            if not (s > 0 and math.isfinite(s)):
                raise ValidationError("grid step must be positive and finite")
            if not b > a:
                raise ValidationError("grid needs max > min")
            if not (b - a) / s < MAX_GRID_POINTS:  # infinite spans included
                raise ValidationError(f"grid axis spans {(b - a) / s:g} steps, over the cap")
        total = self.size()
        if total > MAX_GRID_POINTS:
            raise ValidationError(f"grid has {total} points, over the cap")

    @classmethod
    def line(cls, lo: float, hi: float, step: float) -> "GridSpec":
        return cls(((lo, hi, step),))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def axis(self, k: int = 0) -> np.ndarray:
        a, b, s = self.dims[k]
        n = _axis_count(a, b, s)
        pts = a + s * np.arange(n)
        pts.flags.writeable = False
        return pts

    def points(self) -> np.ndarray:
        """All grid points: shape (n,) in 1-D, (n, d) otherwise."""
        axes = [self.axis(k) for k in range(self.ndim)]
        if self.ndim == 1:
            return axes[0]
        mesh = np.meshgrid(*axes, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.flags.writeable = False
        return out

    def labels(self) -> Tuple[str, ...]:
        """Each point's label, formatted when first read: each coordinate
        to 12 significant digits, ``"(x,y)"`` on a product of axes."""
        return self._labels

    @cached_property
    def _labels(self) -> Tuple[str, ...]:
        # formatted once per grid, however many kernels and targets use it
        axes = [self._axis_labels(k) for k in range(self.ndim)]
        if self.ndim == 1:
            return tuple(axes[0])
        return tuple("(" + ",".join(c) + ")" for c in itertools.product(*axes))

    def _axis_labels(self, k: int) -> list:
        """The labels of axis k; two points that share one are refused."""
        pts = self.axis(k).tolist()
        labels = [format(v, ".12g") for v in pts]
        # rounding keeps the order, so points that share a label are adjacent
        same = list(map(str.__eq__, labels, labels[1:]))
        if any(same):
            i = same.index(True)
            raise ValidationError(
                f"grid {self.dims} has a step below label precision: on axis {k} "
                f"the points {pts[i]!r} and {pts[i + 1]!r} share the label "
                f"{labels[i]!r}")
        return labels

    def check_labels(self) -> None:
        """Refuse a grid whose step is below label precision, formatting
        only the axes that come near it.  Where the step exceeds 2e-11
        times the largest |point| of its axis, adjacent points differ by
        more than two units of their 12th significant digit, so their
        labels differ."""
        for k, (a, b, s) in enumerate(self.dims):
            last = a + s * (_axis_count(a, b, s) - 1)
            if not s > 2e-11 * max(abs(a), abs(last)):
                self._axis_labels(k)

    def size(self) -> int:
        return math.prod(_axis_count(*d) for d in self.dims)

    __len__ = size

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """A problem file's grid, each bound a JSON number."""
        if not isinstance(d, dict) or set(d) not in ({"dims"}, {"min", "max", "step"}):
            raise ValidationError(f"a grid has 'min', 'max' and 'step', or 'dims': {d!r}")
        dims = d["dims"] if "dims" in d else [[d["min"], d["max"], d["step"]]]
        return cls(tuple(tuple(parse(v, "grid bound") for v in t) for t in dims))


def _axis_count(a: float, b: float, s: float) -> int:
    return int(math.floor((b - a) / s + 1e-9)) + 1


# kernel families for coupling-table grids


@dataclass(frozen=True)
class FenchelDot:
    """bbar(x, y) = <x, y>, the pairing of the classical conjugate."""


@dataclass(frozen=True)
class Quadratic:
    """bbar(x, y) = <x, y> - (a/2)|y|^2."""

    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a != 0):
            raise ValidationError("quadratic coefficient must be finite and nonzero")


@dataclass(frozen=True)
class OmegaLipschitz:
    """bbar(x, y) = -omega(y - x) with omega(u) = a*|u|^q.

    omega must be symmetric, subadditive and nonnegative; a*|.|^q has
    those properties exactly when a > 0 and 0 < q <= 1.
    """

    a: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValidationError("omega scale must satisfy a > 0")
        if not (0 < self.q <= 1):
            raise ValidationError("omega exponent must satisfy 0 < q <= 1")


@dataclass(frozen=True, eq=False)
class LipschitzLine:
    """Structure of an ``OmegaLipschitz`` kernel with q = 1 on 1-D grids:
    bbar(x, y) = -a|y - x| with ascending x points ``xp`` and y points
    ``yp``; the dual's swaps them.  The engine reads it to reduce the
    transforms in O(n + m)."""

    a: float
    xp: np.ndarray
    yp: np.ndarray

    def entries(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The coupling entries at the point pairs (x, y), evaluated with
        the same float operations as the kernel's table; ``y`` is
        overwritten with them."""
        return _neg_omega(np.subtract(y, x, out=y), self.a, 1.0)


def _neg_omega(dist: np.ndarray, a: float, q: float) -> np.ndarray:
    """-a*|dist|**q in place: the Lipschitz family's per-entry operations."""
    np.abs(dist, out=dist)
    if q != 1:
        np.power(dist, q, out=dist)
    if a != 1:
        np.multiply(dist, a, out=dist)
    return np.negative(dist, out=dist)


@dataclass(frozen=True)
class WeightedPower:
    """bbar((x', x''), y) = -x''*|y - x'|^p over X = E x (0, inf)."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValidationError("power exponent must be positive")


#: Kind codes of the entries of a :class:`FormTable`.
OFF, AFFINE, POWER, TABULATED = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class FormSet:
    """The entries of one non-affine kind in a table: their flat
    positions in it (row-major, ascending) and their parameters in the
    same order, as ``values(lam, *params)`` takes them."""

    at: np.ndarray
    params: Tuple[np.ndarray, ...]
    values: Callable[..., np.ndarray]


@dataclass(frozen=True, eq=False)
class Slices:
    """The slices of a kernel: one row per x, one column per y.

    ``offsets(index)`` gives those rows of the offsets c, which are -inf
    off the support.  Every entry evaluates to c - m*lam, with ``m``
    None when every slope is 1 (as in a coupling table), except the
    entries of ``forms``, which their own closed forms overwrite.
    """

    offsets: Callable[[object], np.ndarray]
    m: Optional[np.ndarray] = None
    forms: Tuple[FormSet, ...] = ()


class FormTable:
    """A table of scalar forms as typed parameter arrays, one row per x.

    ``kind`` holds a kind code per entry, ``c`` the offset (-inf off the
    support, 0 for tabulated forms), ``m`` the affine slope or the
    signed-power exponent (1 otherwise) and ``shift`` the signed-power
    shift (0 otherwise).  The tabulated forms, in row-major order, have
    ``n`` breakpoints each in the rows of ``s`` and ``t``, padded with
    +inf.  ``dual`` is the table of the closed-form adjoints, one row
    per y: affine (c/m, 1/m), signed power (shift, 1/p, c), tabulated
    breakpoints swapped and reversed.  It is made here, unless given.
    """

    lazy = False

    def __init__(self, kind, c, m, shift, s, t, n, dual: Optional["FormTable"] = None):
        for arr in (kind, c, m, shift, s, t, n):
            arr.flags.writeable = False
        self.kind, self.c, self.m, self.shift = kind, c, m, shift
        self.s, self.t, self.n = s, t, n
        self.shape = kind.shape
        unit = not (m[kind == AFFINE] != 1.0).any()
        power = np.flatnonzero(kind == POWER)
        self._tab = np.flatnonzero(kind == TABULATED)
        self._slices = Slices(
            c.__getitem__, None if unit else m,
            _form_sets(power, (c.flat[power], m.flat[power], shift.flat[power]),
                       self._tab, (s, t, n)))
        if dual is not None:
            self.dual = dual
            return
        with np.errstate(over="ignore"):
            inv_m = 1.0 / m
            adj_c = np.where(kind == POWER, shift, c / m)
        # a slope or exponent whose adjoint overflows has no float inverse
        if not (np.isfinite(inv_m).all() and (np.isfinite(adj_c) == np.isfinite(c)).all()):
            raise ValidationError("an affine slope or signed-power exponent is too small: "
                                  "its adjoint overflows")
        # the tabulated forms in the row-major order of the transpose
        i, j = np.divmod(self._tab, self.shape[1])
        order = np.argsort(j * self.shape[0] + i)
        s_t, t_t, n_t = s[order], t[order], n[order]
        self.dual = FormTable(
            kind.T.copy(), adj_c.T.copy(), inv_m.T.copy(),
            np.where(kind == POWER, c, 0.0).T.copy(),
            _reversed(t_t, n_t), _reversed(s_t, n_t), n_t, dual=self)

    @classmethod
    def pack(cls, rows: Sequence[Sequence[ScalarConnection]]) -> "FormTable":
        """The table of the scalar forms ``rows``, one row per x."""
        nx, ny = len(rows), len(rows[0])
        if any(len(r) != ny for r in rows):
            raise ValidationError("entry table must be rectangular")
        params, points = [], []
        add = params.extend
        for e in itertools.chain.from_iterable(rows):
            form = type(e)
            if form is Affine:
                add((AFFINE, e.c, e.m, 0.0))
            elif form is Off:
                add((OFF, -math.inf, 1.0, 0.0))
            elif form is SignedPower:
                add((POWER, e.c, e.p, e.shift))
            elif form is TabulatedDecreasing:
                add((TABULATED, 0.0, 1.0, 0.0))
                points.append(e.points)
            else:
                raise ValidationError(f"not a scalar form: {e!r}")
        kind, c, m, shift = np.fromiter(params, float, len(params)).reshape(
            -1, 4).T.reshape(4, nx, ny)
        width = max(map(len, points), default=2)
        pad = ((math.inf, math.inf),) * width
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(
            p + pad[len(p):] for p in points))
        pts = np.fromiter(flat, float, 2 * width * len(points)).reshape(-1, width, 2)
        return cls(kind.astype(np.int8), c, m, shift,
                   pts[..., 0].copy(), pts[..., 1].copy(),
                   np.fromiter(map(len, points), np.intp, len(points)))

    def slices(self) -> Slices:
        return self._slices

    def entry(self, i: int, j: int) -> ScalarConnection:
        kind = self.kind[i, j]
        if kind == OFF:
            return Off()
        c, m = float(self.c[i, j]), float(self.m[i, j])
        if kind == AFFINE:
            return Affine(c, m)
        if kind == POWER:
            return SignedPower(c, m, float(self.shift[i, j]))
        k = int(np.searchsorted(self._tab, i * self.kind.shape[1] + j))
        n = self.n[k]
        return TabulatedDecreasing(tuple(zip(self.s[k, :n].tolist(),
                                             self.t[k, :n].tolist())))


def _form_sets(power_at, power_params, tab_at, tab_params) -> Tuple[FormSet, ...]:
    sets = []
    if power_at.size:
        sets.append(FormSet(power_at, power_params, signed_power_values))
    if tab_at.size:
        sets.append(FormSet(tab_at, tab_params, tabulated_values))
    return tuple(sets)


def _reversed(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The first n[k] entries of each row k in reverse, padded with +inf."""
    k = n[:, None] - 1 - np.arange(rows.shape[1])
    return np.where(k >= 0, np.take_along_axis(rows, np.maximum(k, 0), axis=1),
                    math.inf)


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """A coupling table bbar(x, y), every slope 1: for a slice or an
    integer array of x (y) indices, ``rows`` (``cols``) gives a 2-D
    array with one row per index.  A stored table keeps its array and a
    C-contiguous copy of its transpose and gives read-only views of
    them, which the table owns; a generated one (``lazy``) gives fresh
    arrays, which the caller owns and may overwrite."""

    rows: Callable[[object], np.ndarray]
    cols: Callable[[object], np.ndarray]
    shape: Tuple[int, int]
    lazy: bool = True

    @classmethod
    def stored(cls, values) -> "CouplingTable":
        """The table of ``values``, copied into a float array of its own;
        refuses +inf and NaN."""
        arr = np.array(values, dtype=float, order="C")
        top = arr.max(initial=-math.inf)  # NaN if an entry is, else +inf if one is
        if not top < math.inf:
            if np.isposinf(arr).any():
                raise ValidationError("coupling entries must lie in R u {-inf}")
            raise ValidationError("coupling entries may not be NaN")
        cols = arr.T.copy()  # columns read as contiguous rows
        arr.flags.writeable = cols.flags.writeable = False
        return cls(arr.__getitem__, cols.__getitem__, arr.shape, False)

    @property
    def dual(self) -> "CouplingTable":
        return CouplingTable(self.cols, self.rows, self.shape[::-1], self.lazy)

    def block(self, k) -> np.ndarray:
        """Rows ``k``; an integer gives one row."""
        if isinstance(k, (int, np.integer)):
            return self.rows(slice(k, k + 1))[0]
        return self.rows(k)

    def slices(self) -> Slices:
        return Slices(self.block)

    def entry(self, i: int, j: int) -> ScalarConnection:
        return make_affine(float(self.block(i)[j]), 1.0)


def labels_of(space) -> Tuple[str, ...]:
    """The labels of a space: a tuple of labels, or a :class:`GridSpec`,
    whose labels are formatted when first read."""
    return space.labels() if isinstance(space, GridSpec) else space


def same_space(a, b) -> bool:
    """Whether two spaces are one: the same tuple, equal grids, or else
    equal labels."""
    return a is b or (isinstance(a, GridSpec) and a == b) or labels_of(a) == labels_of(b)


class Kernel:
    """Immutable kernel over all of X and Y; construct through the
    ``build_*`` helpers."""

    def __init__(self, x_labels, y_labels, table, *,
                 line: Optional[LipschitzLine] = None):
        """The kernel of a :class:`FormTable` or :class:`CouplingTable`.
        Each side is a sequence of labels or a :class:`GridSpec`, kept as
        ``x_space`` and ``y_space``; only labels given as a sequence are
        checked for duplicates.  A generated table is a grid family's
        (``is_grid``).  ``line``, kept as ``lipschitz_line``, is the
        structure of a 1-D Lipschitz distance table (see
        :class:`LipschitzLine`), which :func:`build_grid_kernel` derives
        from the family and the grids."""
        self.x_space, self.y_space = (
            s if isinstance(s, GridSpec) else tuple(map(str, s)) for s in (x_labels, y_labels))
        self.shape = len(self.x_space), len(self.y_space)
        if not all(self.shape):
            raise ValidationError("index sets must be nonempty")
        for side, space in (("x", self.x_space), ("y", self.y_space)):
            if not isinstance(space, GridSpec) and len(set(space)) != len(space):
                raise ValidationError(f"duplicate {side} labels")
        self.table = table
        self.is_grid = table.lazy
        self.lipschitz_line = line
        if table.shape != self.shape:
            what = "coupling" if self.is_moreau else "entry"
            raise ValidationError(f"{what} table shape does not match labels")
        if self.is_grid:  # finite by build_grid_kernel
            return
        # A1 and A2 on the support mask.  A3 holds by construction: the
        # supported slices are affine, signed-power or tabulated forms,
        # which are bijections, and off-support entries are Off.
        finite = np.isfinite(table.slices().offsets(slice(None)))
        for ok, labels, what in ((finite.any(axis=1), self.x_labels, "A1 violated: row"),
                                 (finite.any(axis=0), self.y_labels, "A2 violated: column")):
            if not ok.all():
                raise ValidationError(
                    f"{what} {labels[int(np.argmin(ok))]!r} has empty support")

    # ------------------------------------------------------------------
    @property
    def x_labels(self) -> Tuple[str, ...]:
        return labels_of(self.x_space)

    @property
    def y_labels(self) -> Tuple[str, ...]:
        return labels_of(self.y_space)

    @property
    def is_moreau(self) -> bool:
        """True when the kernel is a coupling table bbar, so that every
        slice on the support is lam -> bbar - lam."""
        return isinstance(self.table, CouplingTable)

    @cached_property
    def dual(self) -> "Kernel":
        """The kernel b° over Y x X, b°(y, x, .) the inverse of b(x, y, .),
        whose forward map is this kernel's adjoint; ``k.dual.dual is k``.
        Its table is ``table.dual``, made at build, and is not checked again."""
        dual, line = object.__new__(Kernel), self.lipschitz_line
        vars(dual).update(
            x_space=self.y_space, y_space=self.x_space, shape=self.shape[::-1],
            table=self.table.dual, is_grid=self.is_grid, dual=self,
            lipschitz_line=line and LipschitzLine(line.a, line.yp, line.xp))
        return dual

    # ------------------------------------------------------------------
    def slices(self) -> Slices:
        """The slices of the forward map."""
        if self.is_moreau:  # read through bbar_row, which perfbench wraps
            return Slices(self.bbar_row)
        return self.table.slices()

    def bbar_row(self, i) -> np.ndarray:
        """Row i of the coupling table; a slice gives those rows as one
        2-D block (read-only when the table is stored)."""
        return self.table.block(i)

    def bbar_col(self, j) -> np.ndarray:
        """Column j of the coupling table: row j of the dual's."""
        return self.dual.bbar_row(j)

    def entry(self, i: int, j: int) -> ScalarConnection:
        """Slice at (x_i, y_j): lam -> b(x_i, y_j, lam)."""
        return self.table.entry(i, j)

    def adjoint_entry(self, j: int, i: int) -> ScalarConnection:
        """Adjoint slice at (y_j, x_i): the dual's entry, the inverse of
        ``entry(i, j)``."""
        return self.dual.entry(j, i)

    def support_row(self, i: int) -> Tuple[int, ...]:
        return tuple(np.nonzero(np.isfinite(self.slices().offsets(i)))[0])

    def support_col(self, j: int) -> Tuple[int, ...]:
        return self.dual.support_row(j)


# ----------------------------------------------------------------------
# builders


def _default_labels(prefix: str, n: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


def build_moreau(bbar, x_labels=None, y_labels=None) -> Kernel:
    """Kernel of the conjugacy Bf(x) = sup_y (bbar(x,y) - f(y)).

    Entries may be numbers or ``"-inf"``; anything else (+inf, NaN, other
    strings, None, an integer too large for a float, a row that is not a
    list) is a ValidationError naming the coupling table.  Finite entries
    become unit-slope affine slices, -inf entries are Off.
    """
    try:
        rows = [[float(as_extreal(_accept_neg_inf(v))) for v in row] for row in bbar]
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed coupling table: {exc}") from exc
    if not rows or not rows[0]:
        raise ValidationError("coupling table must be nonempty")
    nx, ny = len(rows), len(rows[0])
    if any(len(r) != ny for r in rows):
        raise ValidationError("coupling table must be rectangular")
    return Kernel(
        x_labels or _default_labels("x", nx),
        y_labels or _default_labels("y", ny),
        CouplingTable.stored(rows),
    )


_JSON_NUMBERS = frozenset((float, int))


def _accept_neg_inf(v):
    if type(v) in _JSON_NUMBERS:  # most entries, at the cost of one lookup
        return v
    if v == "-inf":
        return -math.inf
    if isinstance(v, (str, bool, np.bool_)):
        raise ValidationError(f"coupling entry is not a number or '-inf': {v!r}")
    return v


def build_table(entries, x_labels=None, y_labels=None) -> Kernel:
    """Kernel from an explicit table of scalar forms (or their JSON dicts)."""
    rows = [
        [e if isinstance(e, ScalarConnection) else conn_from_dict(e) for e in row]
        for row in entries
    ]
    if not rows or not rows[0]:
        raise ValidationError("entry table must be nonempty")
    nx, ny = len(rows), len(rows[0])
    return Kernel(
        x_labels or _default_labels("x", nx),
        y_labels or _default_labels("y", ny),
        FormTable.pack(rows),
    )


def build_grid_kernel(family, x_grid: GridSpec, y_grid: GridSpec) -> Kernel:
    """Coupling-table kernel for one of the parametric families, its
    rows and columns generated on demand.

    The family is refused if it is not finite at the corners of the
    grids' boxes, where each of its intermediates (x*y, (a/2)|y|^2,
    |y - x|, its square and power, x''*|y - x'|^p) is largest: so the
    table is finite.
    """
    if isinstance(family, WeightedPower):
        if x_grid.ndim != 2:
            raise ValidationError(
                "weighted-power kernels need a 2-D x grid: (x', x'') pairs"
            )
        if y_grid.ndim != 1:
            raise ValidationError("weighted-power kernels use a 1-D y grid")
        xsec_min, _, xsec_step = x_grid.dims[1]
        if xsec_min < xsec_step:
            raise ValidationError("x'' axis must start at or above its step (> 0)")
    elif x_grid.ndim != y_grid.ndim:
        raise ValidationError("x and y grids must share a dimension")

    with np.errstate(all="ignore"):
        corners = _family_block(family, _corners(x_grid), _corners(y_grid))(
            slice(None), True)
    if not np.isfinite(corners).all():
        raise ValidationError(
            f"{family!r} overflows on these grids: its table is not finite at their corners")

    if y_grid == x_grid:  # one grid, sampled and labelled once
        y_grid = x_grid
    xp = x_grid.points()
    yp = xp if y_grid is x_grid else y_grid.points()
    line = None
    if isinstance(family, OmegaLipschitz) and family.q == 1 and x_grid.ndim == 1:
        line = LipschitzLine(family.a, xp, yp)
    block = _family_block(family, xp, yp)
    table = CouplingTable(lambda k: block(k, True), lambda k: block(k, False),
                          (x_grid.size(), y_grid.size()))
    for grid in dict.fromkeys((x_grid, y_grid)):
        grid.check_labels()
    return Kernel(x_grid, y_grid, table, line=line)


def _corners(grid: GridSpec) -> np.ndarray:
    """The 2^d corners of the grid's box, laid out as its points."""
    ends = [grid.axis(k)[[0, -1]] for k in range(grid.ndim)]
    pts = np.array(list(itertools.product(*ends)))
    return pts[:, 0] if grid.ndim == 1 else pts


def _family_block(family, xp, yp):
    """The family's coupling table as ``block(index, by_rows)``.

    Rows pair the x points ``xp[index]`` with every y point; columns pair
    ``yp[index]`` with every x point, one row per column.  One broadcast
    formula per family builds either orientation as a fresh array,
    updated in place, with the same per-entry operations in both.
    """
    def pair(k, by_rows):
        # the block's outer points vary along axis 0, the others along axis 1
        if by_rows:
            return xp[k][:, None], yp[None, :]
        return xp[None, :], yp[k][:, None]

    def dot(k, by_rows):
        if xp.ndim == 1:
            return np.multiply(*pair(k, by_rows))
        # one matrix-vector product per outer point, as a stacked matmul
        outer, inner = (xp, yp) if by_rows else (yp, xp)
        return np.matmul(inner, outer[k][:, :, None])[..., 0]

    if isinstance(family, FenchelDot):
        return dot
    if isinstance(family, Quadratic):
        half = 0.5 * family.a
        pen = half * yp * yp if yp.ndim == 1 else half * np.sum(yp * yp, axis=1)

        def quadratic(k, by_rows):
            out = dot(k, by_rows)
            out -= pen[None, :] if by_rows else pen[k][:, None]
            return out
        return quadratic
    if isinstance(family, OmegaLipschitz):
        a, q = family.a, family.q

        def lipschitz(k, by_rows):
            x, y = pair(k, by_rows)
            out = np.subtract(y, x)
            if xp.ndim > 1:
                np.square(out, out=out)
                out = out.sum(axis=-1)
                np.sqrt(out, out=out)
            return _neg_omega(out, a, q)
        return lipschitz
    if isinstance(family, WeightedPower):
        p = family.p

        def weighted(k, by_rows):
            x, y = pair(k, by_rows)
            out = np.subtract(y, x[..., 0])
            np.abs(out, out=out)
            if p != 1:
                np.power(out, p, out=out)
            return np.multiply(out, -x[..., 1], out=out)
        return weighted
    raise ValidationError(f"unknown kernel family: {family!r}")
