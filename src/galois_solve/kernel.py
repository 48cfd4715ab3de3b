"""Finite kernels over X x Y with explicit support tracking.

A kernel assigns every index pair a scalar slice; the support set S is
exactly the set of pairs whose slice is not the constant -inf.  Validity
means: every row and every column meets the support (so the transforms
never take an empty supremum), slices on the support are bijective, and
slices off the support are Off.

Every kernel hands the engine its slices in one representation,
:class:`Slices`: per orientation, blocks of offsets c with the slices
c - m*lam, plus the entries of other forms as typed parameter arrays.
Max-plus style kernels are a coupling table bbar(x, y), stored densely
or built lazily in blocks of rows or columns, with every slope 1.  A
table of scalar forms is a :class:`FormTable` of parameter arrays,
with the adjoint parameters computed once, in closed form.  The slice
objects of :mod:`galois_solve.scalar` are built from either on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .extreal import as_extreal
from .scalar import (
    Affine,
    Off,
    ScalarConnection,
    SignedPower,
    TabulatedDecreasing,
    conn_from_dict,
    make_affine,
    number,
    signed_power_values,
    tabulated_values,
)

#: Above this many entries a coupling-table kernel computes rows/columns
#: on demand instead of storing the dense matrix.
DENSE_LIMIT = 10**6

#: Hard cap on grid sizes (per GridSpec, all dimensions multiplied).
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid, one (min, max, step) triple per dimension."""

    dims: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        dims = tuple((float(a), float(b), float(s)) for a, b, s in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("grid needs at least one dimension")
        total = 1
        for a, b, s in dims:
            if not (s > 0 and math.isfinite(s)):
                raise ValidationError("grid step must be positive and finite")
            if not b > a:
                raise ValidationError("grid needs max > min")
            if not (b - a) / s < MAX_GRID_POINTS:  # infinite spans included
                raise ValidationError(f"grid axis spans {(b - a) / s:g} steps, over the cap")
            total *= _axis_count(a, b, s)
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
        return self._labels

    @cached_property
    def _labels(self) -> Tuple[str, ...]:
        # formatted once per grid, however many kernels and targets use it
        pts = self.points()
        if self.ndim == 1:
            return tuple(format(v, ".12g") for v in pts)
        return tuple(
            "(" + ",".join(format(c, ".12g") for c in row) + ")" for row in pts
        )

    def size(self) -> int:
        n = 1
        for a, b, s in self.dims:
            n *= _axis_count(a, b, s)
        return n

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """A problem file's grid, each bound a JSON number."""
        if not isinstance(d, dict) or set(d) not in ({"dims"}, {"min", "max", "step"}):
            raise ValidationError(f"a grid has 'min', 'max' and 'step', or 'dims': {d!r}")
        dims = d["dims"] if "dims" in d else [[d["min"], d["max"], d["step"]]]
        return cls(tuple(tuple(number(v, "grid bound") for v in t) for t in dims))


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
    those properties exactly when a > 0 and 0 < q <= 1.  On a grid,
    subadditivity is only exercised at grid differences; construction
    additionally spot-checks it on sampled triples.
    """

    a: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValidationError("omega scale must satisfy a > 0")
        if not (0 < self.q <= 1):
            raise ValidationError("omega exponent must satisfy 0 < q <= 1")

    def omega(self, u):
        return self.a * np.abs(u) ** self.q


@dataclass(frozen=True, eq=False)
class LipschitzLine:
    """Structure of an ``OmegaLipschitz`` kernel with q = 1 on 1-D grids:
    bbar(x, y) = -a|y - x| with ascending x points ``xp`` and y points
    ``yp``.  The engine reads it to reduce the transforms in O(n + m)."""

    a: float
    xp: np.ndarray
    yp: np.ndarray

    def entries(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The coupling entries at the point pairs (x, y), evaluated with
        the same float operations as the kernel's table."""
        return _neg_omega(np.subtract(y, x), self.a, 1.0)


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
    """The entries of one non-affine kind in one orientation of a table:
    their flat positions in it (row-major, ascending) and their
    parameters in the same order, as ``values(lam, *params)`` takes
    them."""

    at: np.ndarray
    params: Tuple[np.ndarray, ...]
    values: Callable[..., np.ndarray]


@dataclass(frozen=True, eq=False)
class Slices:
    """The slices of one orientation of a kernel: one row per output
    index (x for the forward map, y for the adjoint), one column per
    input index.

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
    +inf.  Both orientations are computed once; the adjoint one holds
    the closed-form adjoints: affine (c/m, 1/m), signed power
    (shift, 1/p, c), tabulated breakpoints swapped and reversed.
    """

    def __init__(self, kind, c, m, shift, s, t, n):
        for arr in (kind, c, m, shift, s, t, n):
            arr.flags.writeable = False
        self.kind, self.c, self.m, self.shift = kind, c, m, shift
        self.s, self.t, self.n = s, t, n
        nx, ny = kind.shape
        unit = not (m[kind == AFFINE] != 1.0).any()
        power = np.flatnonzero(kind == POWER)
        self._tab = np.flatnonzero(kind == TABULATED)
        self.forward = Slices(
            c.__getitem__, None if unit else m,
            _form_sets(power, (c.flat[power], m.flat[power], shift.flat[power]),
                       self._tab, (s, t, n)))
        p_at, p_order = _transposed(power, nx, ny)
        t_at, t_order = _transposed(self._tab, nx, ny)
        p = power[p_order]
        s_t, t_t, n_t = s[t_order], t[t_order], n[t_order]
        self.adjoint = Slices(
            _frozen(np.where(kind == POWER, shift, c / m).T.copy()).__getitem__,
            None if unit else _frozen((1.0 / m).T.copy()),
            _form_sets(p_at, (shift.flat[p], 1.0 / m.flat[p], c.flat[p]),
                       t_at, (_reversed(t_t, n_t), _reversed(s_t, n_t), n_t)))

    @classmethod
    def pack(cls, rows: Sequence[Sequence[ScalarConnection]]) -> "FormTable":
        """The table of the scalar forms ``rows``, one row per x."""
        nx, ny = len(rows), len(rows[0])
        if any(len(r) != ny for r in rows):
            raise ValidationError("entry table shape does not match labels")
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

    def take_columns(self, keep: np.ndarray) -> "FormTable":
        """The table of the columns ``keep``, in ascending order."""
        kept = np.zeros(self.kind.shape[1], dtype=bool)
        kept[keep] = True
        tab = kept[self._tab % self.kind.shape[1]]
        return FormTable(self.kind[:, keep], self.c[:, keep], self.m[:, keep],
                         self.shift[:, keep], self.s[tab], self.t[tab], self.n[tab])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _form_sets(power_at, power_params, tab_at, tab_params) -> Tuple[FormSet, ...]:
    sets = []
    if power_at.size:
        sets.append(FormSet(power_at, power_params, signed_power_values))
    if tab_at.size:
        sets.append(FormSet(tab_at, tab_params, tabulated_values))
    return tuple(sets)


def _transposed(at: np.ndarray, nx: int, ny: int):
    """The flat positions ``at`` of an (nx, ny) table, moved to its
    transpose and sorted, with the order that sorts them."""
    i, j = np.divmod(at, ny)
    moved = j * nx + i
    order = np.argsort(moved)
    return moved[order], order


def _reversed(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The first n[k] entries of each row k in reverse, padded with +inf."""
    k = n[:, None] - 1 - np.arange(rows.shape[1])
    return np.where(k >= 0, np.take_along_axis(rows, np.maximum(k, 0), axis=1),
                    math.inf)


class Kernel:
    """Immutable kernel table; construct through the ``build_*`` helpers."""

    def __init__(
        self,
        x_labels: Sequence[str],
        y_labels: Sequence[str],
        *,
        bbar: Optional[np.ndarray] = None,
        forms: Optional[FormTable] = None,
        block_fn: Optional[Callable[[object, bool], np.ndarray]] = None,
        is_grid: bool = False,
        copy: bool = True,
    ):
        """The kernel of a coupling table ``bbar``, of a :class:`FormTable`
        of scalar forms, or of a lazy coupling table ``block_fn(index,
        by_rows)``, which for a slice or an integer array of row
        (``by_rows``) or column indices returns a fresh 2-D array with
        one row per index.  ``bbar`` is copied unless ``copy`` is False,
        which hands the kernel a freshly built float array to own."""
        self.x_labels = tuple(map(str, x_labels))
        self.y_labels = tuple(map(str, y_labels))
        if not self.x_labels or not self.y_labels:
            raise ValidationError("index sets must be nonempty")
        if len(set(self.x_labels)) != len(self.x_labels):
            raise ValidationError("duplicate x labels")
        if len(set(self.y_labels)) != len(self.y_labels):
            raise ValidationError("duplicate y labels")
        self.is_grid = is_grid
        # set only by build_grid_kernel, from the family and the grids
        self._line: Optional[LipschitzLine] = None

        self._bbar = None
        self._forms = forms
        self._block_fn = block_fn

        nx, ny = len(self.x_labels), len(self.y_labels)
        if forms is not None:
            if forms.kind.shape != (nx, ny):
                raise ValidationError("entry table shape does not match labels")
            self._check_support(np.isfinite(forms.c))
        elif bbar is not None:
            arr = np.array(bbar, dtype=float) if copy else np.asarray(bbar, dtype=float)
            if arr.shape != (nx, ny):
                raise ValidationError("coupling table shape does not match labels")
            finite = np.isfinite(arr)
            if not finite.all():
                bad = arr[~finite]
                if np.isposinf(bad).any():
                    raise ValidationError("coupling entries must lie in R u {-inf}")
                if np.isnan(bad).any():
                    raise ValidationError("coupling entries may not be NaN")
            self._bbar = _frozen(arr)
            self._check_support(finite)
        elif block_fn is None:
            raise ValidationError("kernel needs a coupling table, scalar forms, or a block function")

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.x_labels), len(self.y_labels)

    @property
    def lipschitz_line(self) -> Optional[LipschitzLine]:
        """The 1-D Lipschitz distance structure of a grid kernel, if any
        (see :class:`LipschitzLine`)."""
        return self._line

    @property
    def is_moreau(self) -> bool:
        """True when the kernel is a coupling table bbar, so that every
        slice on the support is lam -> bbar - lam."""
        return self._forms is None

    # ------------------------------------------------------------------
    def slices(self, by_rows: bool) -> Slices:
        """The slices of the forward map (``by_rows``) or of the adjoint."""
        if self._forms is not None:
            return self._forms.forward if by_rows else self._forms.adjoint
        return Slices(self.bbar_row if by_rows else self.bbar_col)

    def bbar_row(self, i) -> np.ndarray:
        """Row i of the coupling table; a slice gives those rows as one
        2-D block (read-only when the table is stored densely)."""
        if self._bbar is not None:
            return self._bbar[i]
        return self._lazy(i, True)

    def bbar_col(self, j) -> np.ndarray:
        """Column j of the coupling table; a slice gives those columns as
        one 2-D block with one row per column."""
        if self._bbar is not None:
            return self._bbar[:, j].T
        return self._lazy(j, False)

    def _lazy(self, k, by_rows: bool) -> np.ndarray:
        if self._block_fn is None:
            raise ValidationError("kernel has no coupling-table backing")
        if isinstance(k, slice):
            return self._block_fn(k, by_rows)
        return self._block_fn(slice(k, k + 1), by_rows)[0]

    def entry(self, i: int, j: int) -> ScalarConnection:
        """Slice at (x_i, y_j): lam -> b(x_i, y_j, lam)."""
        if self._forms is not None:
            return self._forms.entry(i, j)
        return make_affine(float(self.bbar_row(i)[j]), 1.0)

    def adjoint_entry(self, j: int, i: int) -> ScalarConnection:
        """Adjoint slice at (y_j, x_i): the inverse of ``entry(i, j)``."""
        return self.entry(i, j).adjoint()

    def support_row(self, i: int) -> Tuple[int, ...]:
        return tuple(np.nonzero(np.isfinite(self.slices(True).offsets(i)))[0])

    def support_col(self, j: int) -> Tuple[int, ...]:
        return tuple(np.nonzero(np.isfinite(self.slices(False).offsets(j)))[0])

    # ------------------------------------------------------------------
    def _check_support(self, finite: np.ndarray):
        """A1 and A2 on the support mask.  A3 holds by construction: the
        supported slices are affine, signed-power or tabulated forms,
        which are bijections, and off-support entries are Off."""
        for ok, labels, what in ((finite.any(axis=1), self.x_labels, "A1 violated: row"),
                                 (finite.any(axis=0), self.y_labels, "A2 violated: column")):
            if not ok.all():
                raise ValidationError(
                    f"{what} {labels[int(np.argmin(ok))]!r} has empty support")

    # ------------------------------------------------------------------
    def restrict(self, y_subset: Iterable[str]) -> "Kernel":
        """Kernel on X x Y', keeping the original column order.

        Semantically this forces f(y) = +inf off the subset.  Raises
        when a row loses all of its support (A1 would break).  The
        result records no grid structure.
        """
        wanted = set(y_subset)
        unknown = wanted - set(self.y_labels)
        if unknown:
            raise ValidationError(f"unknown y labels: {sorted(unknown)}")
        keep = [j for j, l in enumerate(self.y_labels) if l in wanted]
        if not keep:
            raise ValidationError("restriction to an empty column set")
        new_y = tuple(self.y_labels[j] for j in keep)
        keep_arr = np.asarray(keep)
        if self._forms is not None:
            return Kernel(self.x_labels, new_y, is_grid=self.is_grid,
                          forms=self._forms.take_columns(keep_arr))
        if self._bbar is not None:
            return Kernel(self.x_labels, new_y, bbar=self._bbar[:, keep_arr],
                          is_grid=self.is_grid, copy=False)
        # lazy family tables are finite, so every row keeps its support
        block = self._block_fn
        return Kernel(
            self.x_labels, new_y,
            block_fn=lambda k, by_rows: (
                block(k, True)[:, keep_arr] if by_rows else block(keep_arr[k], False)
            ),
            is_grid=self.is_grid,
        )


# ----------------------------------------------------------------------
# builders


def _default_labels(prefix: str, n: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


def build_moreau(bbar, x_labels=None, y_labels=None) -> Kernel:
    """Kernel of the conjugacy Bf(x) = sup_y (bbar(x,y) - f(y)).

    Entries may be numbers or ``"-inf"``; a value of +inf is rejected.
    Finite entries become unit-slope affine slices, -inf entries are Off.
    """
    rows = [[float(as_extreal(_accept_neg_inf(v))) for v in row] for row in bbar]
    if not rows or not rows[0]:
        raise ValidationError("coupling table must be nonempty")
    nx, ny = len(rows), len(rows[0])
    if any(len(r) != ny for r in rows):
        raise ValidationError("coupling table must be rectangular")
    return Kernel(
        x_labels or _default_labels("x", nx),
        y_labels or _default_labels("y", ny),
        bbar=np.array(rows, dtype=float), copy=False,
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
        forms=FormTable.pack(rows),
    )


def build_grid_kernel(family, x_grid: GridSpec, y_grid: GridSpec) -> Kernel:
    """Coupling-table kernel for one of the parametric families.

    Below :data:`DENSE_LIMIT` entries the table is materialised densely;
    above it rows and columns are computed on demand.
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

    xp = x_grid.points()
    yp = y_grid.points()
    block = _family_block(family, xp, yp)
    nx, ny = x_grid.size(), y_grid.size()

    line = None
    if isinstance(family, OmegaLipschitz):
        _spot_check_subadditive(family, yp)
        if family.q == 1 and x_grid.ndim == 1:
            line = LipschitzLine(family.a, xp, yp)

    if nx * ny <= DENSE_LIMIT:
        kernel = Kernel(x_grid.labels(), y_grid.labels(),
                        bbar=block(slice(None), True), is_grid=True, copy=False)
    else:
        kernel = Kernel(x_grid.labels(), y_grid.labels(), block_fn=block,
                        is_grid=True)
    kernel._line = line
    return kernel


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


def _spot_check_subadditive(family: OmegaLipschitz, yp: np.ndarray, samples=128):
    """Sampled triple check of omega(u+v) <= omega(u) + omega(v).

    A full check over a continuum is impossible on a grid; this guards
    against future family edits breaking the contract.
    """
    rng = np.random.default_rng(7)
    flat = yp.ravel()
    u = rng.choice(flat, samples)
    v = rng.choice(flat, samples)
    lhs = family.omega(u + v)
    rhs = family.omega(u) + family.omega(v)
    bad = lhs > rhs + 1e-9
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"omega is not subadditive at u={u[k]}, v={v[k]}"
        )
