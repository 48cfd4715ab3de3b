"""Core transforms of a kernel: the forward map, its adjoint, the
projector, and the inverse subdifferentials of a target, which are the
covering sets of the existence criterion.

All operations are pure functions of immutable inputs.  Every argmax
set, and every transform of a kernel without recorded structure, comes
from one blocked max-plus reduction, :func:`sup_pass`, which the grid
experiments in :mod:`galois_solve.lab` call too: a block holds the
slices evaluated at one x per row, and its rows are reduced to their
maxima and, on request, near-maximisers.  The adjoint is the forward
map of the dual kernel (:attr:`~galois_solve.kernel.Kernel.dual`).
Every kernel builds its blocks the same way from its
:class:`~galois_solve.kernel.Slices`: offsets minus the input (times
the slopes, when some slope is not 1), then the signed-power and
tabulated entries of a table of scalar forms overwritten from their
parameter arrays.  Maxima are order-independent, so data-parallel
evaluation of the blocks is deterministic.  A pass over more than
:data:`~galois_solve.kernel.DENSE_LIMIT` entries of a table that a grid
family generates block by block
(:attr:`~galois_solve.kernel.Kernel.is_grid`) evaluates its blocks on as
many threads as the process may use CPUs, capped at the number of
blocks.  Every other pass runs serially: threads were measured to gain
nothing on a stored table, of couplings or of forms, and a small pass
gains little next to the start of a pool.  A pass over a stored table
writes its blocks into one scratch array per thread, reused from block
to block; a generated block is a fresh array, evaluated in place.  What
:func:`sup_pass` and :func:`slice_table` return is fresh and the
caller's own: it aliases no scratch block and no table.

Argmax sets travel as one flat array of sorted indices with row offsets,
in a :class:`~galois_solve.covering.CoverFamily`, which turns them into
label sets only when its ``sets`` view is read.

Kernels that record a :class:`LipschitzLine` (the distance kernels
-a|y - x| on 1-D grids) take a single-threaded O(n + m) path for the
transforms alone; their argmax sets still use the blocked reduction.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .covering import CoverFamily, offsets
from .errors import ValidationError
from .extreal import DEFAULT_TOL, INFINITIES, ExtReal, parse
from . import kernel as kernel_mod
from .kernel import GridSpec, Kernel, LipschitzLine, labels_of, same_space

_BLOCK = 256


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class FunctionOnSpace:
    """A function on a finite space, valued in the extended reals.  The
    space is a sequence of labels or a :class:`~galois_solve.kernel.GridSpec`
    (a kernel's ``x_space`` or ``y_space``), whose labels are formatted
    when ``labels`` is first read."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.space, GridSpec):
            object.__setattr__(self, "space", tuple(self.space))
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (len(self.space),):
            raise ValidationError("one value per label is required")
        if np.isnan(arr).any():
            raise ValidationError("NaN is not an extended real value")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def labels(self) -> Tuple[str, ...]:
        return labels_of(self.space)

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {l: k for k, l in enumerate(self.labels)}

    @classmethod
    def from_mapping(cls, space, mapping: Mapping) -> "FunctionOnSpace":
        """The function on ``space`` (labels or a grid) with the values
        ``mapping`` gives its labels."""
        if not isinstance(space, GridSpec):
            space = tuple(space)
        labels = labels_of(space)
        missing = [l for l in labels if l not in mapping]
        if missing:
            raise ValidationError(f"missing values for labels: {missing[:4]}")
        known = set(labels)
        extra = [k for k in mapping if k not in known]
        if extra:
            raise ValidationError(f"values for unknown labels: {extra[:4]}")
        vals = [parse(mapping[l], f"value at {l!r}", INFINITIES) for l in labels]
        return cls(space, np.array(vals))

    def value(self, label: str) -> ExtReal:
        return ExtReal(self.values[self._index[label]])

    def as_dict(self) -> Dict[str, ExtReal]:
        return {l: ExtReal(v) for l, v in zip(self.labels, self.values)}

    def with_value(self, label: str, value) -> "FunctionOnSpace":
        vals = self.values.copy()
        vals[self._index[label]] = parse(value, f"value at {label!r}", INFINITIES)
        return FunctionOnSpace(self.space, vals)

    def leq(self, other: "FunctionOnSpace", tol: float = 0.0) -> bool:
        """Pointwise order, with ``tol`` of slack on finite comparisons."""
        self._require_same_space(other)
        return bool(np.all(self.values <= other.values + tol))

    def _require_same_space(self, other: "FunctionOnSpace"):
        if not same_space(self.space, other.space):
            raise ValidationError("functions live on different spaces")

    def __repr__(self):
        inner = ", ".join(f"{l}={ExtReal(v)}" for l, v in zip(self.labels, self.values))
        return f"FunctionOnSpace({inner})"


# ----------------------------------------------------------------------
# the sup-of-slices transforms


def _blocks(kernel: Kernel, lam: np.ndarray):
    """Blocks of the kernel's slices evaluated at ``lam``, one row per
    x, as ``block(lo, hi, out=None)``.

    Every entry is first taken as c - m*lam, with -inf absorbing: c
    never holds +inf, so a +inf in ``lam`` already yields -inf, and only
    -inf - (-inf) needs mending, in the columns where ``lam`` is -inf.
    The signed-power and tabulated entries are then overwritten by
    their own closed forms.

    A block the table hands out fresh (a generated table's) is evaluated
    in place and returned.  Otherwise the block is written into the
    leading ``hi - lo`` rows of ``out``, a scratch array of the caller's
    with at least that many rows, and that view of it is returned; the
    caller owns it, and the next block written there overwrites it.
    Without ``out`` every block is a fresh array.  The offsets a table
    hands out read-only are never written to.
    """
    slices = kernel.slices()
    n_in = len(lam)
    neg = np.flatnonzero(np.isneginf(lam))

    def block(lo: int, hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        src = slices.offsets(slice(lo, hi))
        if src.flags.writeable:
            out = src
        elif out is None:
            out = np.empty(src.shape)
        else:
            out = out[:hi - lo]
        with np.errstate(invalid="ignore", over="ignore"):
            if slices.m is None:
                np.subtract(src, lam, out=out)
            else:  # only read-only offsets come with slopes, so out is not src
                np.multiply(slices.m[lo:hi], lam, out=out)
                np.subtract(src, out, out=out)
            if neg.size:
                sub = out[:, neg]
                sub[np.isnan(sub)] = -math.inf
                out[:, neg] = sub
            for forms in slices.forms:
                a, b = np.searchsorted(forms.at, (lo * n_in, hi * n_in))
                pos = forms.at[a:b] - lo * n_in
                np.put(out, pos, forms.values(
                    lam[pos % n_in], *(p[a:b] for p in forms.params)))
        return out

    return block


def slice_table(kernel: Kernel, lam: np.ndarray) -> np.ndarray:
    """The whole table of the kernel's slices at ``lam`` that the
    reduction maximises, one row per x."""
    return _blocks(kernel, lam)(0, kernel.shape[0])


#: Points per chunk of :func:`_envelope_pass`.
_ENVELOPE_CHUNK = 2**16


def _prefix_argmax(s: np.ndarray) -> np.ndarray:
    """For every k, the index of a maximum of ``s[:k + 1]``."""
    at = np.arange(len(s))
    at[s != np.maximum.accumulate(s)] = 0
    return np.maximum.accumulate(at, out=at)


def _envelope_pass(line: LipschitzLine, lam: np.ndarray) -> np.ndarray:
    """The forward map of a 1-D Lipschitz distance kernel in O(n + m).

    With bbar = -a|y - x| over ascending points, the supremum at an x
    splits at that point: to its left the entries are (a*y - lam) - a*x,
    to its right (-a*y - lam) + a*x.  A prefix and a suffix argmax pick
    one maximiser per side, and the result is the larger of the two
    table entries there, evaluated with the table's own operations.
    Each value is therefore an entry of its row; where the two splits
    round differently it can sit below the row maximum by a few ulps of
    a*(|x| + |y|) + |lam|.  The x points go in chunks of
    :data:`_ENVELOPE_CHUNK`, so that the pass holds three arrays of its
    size, the argmaxes and the result, and chunks of the rest.
    """
    x, y, a = line.xp, line.yp, line.a
    m = len(y)
    left = _prefix_argmax(np.multiply(y, a) - lam)
    right_rev = _prefix_argmax((np.multiply(y, -a) - lam)[::-1])  # of y reversed
    out = np.empty(len(x))
    for lo in range(0, len(x), _ENVELOPE_CHUNK):
        xs = x[lo:lo + _ENVELOPE_CHUNK]
        # y[:n_left] <= x, and y[n_below:] >= x
        n_left = np.searchsorted(y, xs, side="right")
        n_below = np.searchsorted(y, xs, side="left")
        jr = m - 1 - right_rev[np.maximum(m - 1 - n_below, 0)]
        jl = np.where(n_left > 0, left[np.maximum(n_left - 1, 0)], jr)
        jr = np.where(n_below < m, jr, jl)
        np.maximum(_entries(line, xs, jl, lam), _entries(line, xs, jr, lam),
                   out=out[lo:lo + _ENVELOPE_CHUNK])
    return out


def _entries(line: LipschitzLine, x: np.ndarray, j: np.ndarray, lam: np.ndarray):
    """The slices of the distance kernel at the pairs (x, y[j]) at lam."""
    out = line.entries(x, line.yp[j])
    out -= lam[j]
    return out


def sup_pass(kernel: Kernel, lam: np.ndarray, tol: Optional[float] = None):
    """The one max-plus reduction behind both transforms: the forward
    map of ``kernel``, and the adjoint as the forward map of its dual.

    For each x it returns the supremum over y of the slices evaluated
    at ``lam``.  With ``tol`` it also returns the sets of y attaining
    it, one per x as a :class:`CoverFamily` over the y side: the
    entries with ``value >= sup - tol``, so that ``tol=0`` keeps the
    exact maximisers and a +inf supremum only the entries equal to it.
    A supremum of -inf is attained by the whole support.  Without
    ``tol`` the family is None, and kernels that record a
    :class:`LipschitzLine` take :func:`_envelope_pass` instead.
    """
    if tol is None and kernel.lipschitz_line is not None:
        return _envelope_pass(kernel.lipschitz_line, lam), None
    n_out, n_in = kernel.shape
    block = _blocks(kernel, lam)
    rows = min(_BLOCK, n_out)
    scratch = threading.local()  # one value block and tie mask per thread

    def run(span: Tuple[int, int]):
        lo, hi = span
        if not hasattr(scratch, "vals"):
            scratch.vals = np.empty((rows, n_in))
        vals = block(lo, hi, scratch.vals)
        top = vals.max(axis=1)
        if tol is None:
            return top, None, None
        if not hasattr(scratch, "hit"):
            scratch.hit = np.empty((rows, n_in), dtype=bool)
        hit = np.greater_equal(vals, (top - tol)[:, None], out=scratch.hit[:hi - lo])
        for r in np.flatnonzero(np.isneginf(top)):
            hit[r] = False
            hit[r, list(kernel.support_row(lo + r))] = True
        # flat positions in row-major order: each row's columns ascending
        return top, np.count_nonzero(hit, axis=1), np.flatnonzero(hit) % n_in

    spans = [(lo, min(lo + _BLOCK, n_out)) for lo in range(0, n_out, _BLOCK)]
    threads = 1
    if kernel.is_grid and n_out * n_in > kernel_mod.DENSE_LIMIT:
        threads = min(_cpus(), len(spans))
    if threads <= 1:
        parts = [run(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, spans))
    tops, lengths, cols = zip(*parts)
    top = np.concatenate(tops)
    if tol is None:
        return top, None
    return top, CoverFamily(kernel.y_space, kernel.x_space, np.arange(n_in),
                            np.arange(n_out), offsets(np.concatenate(lengths)),
                            np.concatenate(cols))


def apply_forward(kernel: Kernel, f: FunctionOnSpace) -> FunctionOnSpace:
    """The connection itself: (Bf)(x) = sup_y b(x, y, f(y))."""
    if not same_space(f.space, kernel.y_space):
        raise ValidationError("function labels do not match the kernel's y side")
    return FunctionOnSpace(kernel.x_space, sup_pass(kernel, f.values)[0])


def apply_adjoint(kernel: Kernel, g: FunctionOnSpace) -> FunctionOnSpace:
    """The adjoint connection: (B°g)(y) = sup_x b°(y, x, g(x)), the
    forward map of ``kernel.dual``."""
    if not same_space(g.space, kernel.x_space):
        raise ValidationError("function labels do not match the kernel's x side")
    return FunctionOnSpace(kernel.y_space, sup_pass(kernel.dual, g.values)[0])


def projector(kernel: Kernel, g: FunctionOnSpace) -> FunctionOnSpace:
    """The composition of the two transforms: the largest element of the
    forward image below g.  Always <= g pointwise."""
    return apply_forward(kernel, apply_adjoint(kernel, g))


# ----------------------------------------------------------------------
# argmax machinery


def subdiff_inverse(kernel: Kernel, g: FunctionOnSpace,
                    tol: float = DEFAULT_TOL) -> Tuple[np.ndarray, CoverFamily]:
    """The adjoint transform of g and, for each y, the set of x in the
    column support attaining sup_x b°(y, x, g(x)), as a family indexed
    by y over X; these are the covering sets of the existence criterion.
    All near-maximisers within ``tol`` of a finite supremum are
    included; +inf is attained only by the entries equal to it."""
    if not same_space(g.space, kernel.x_space):
        raise ValidationError("function labels do not match the kernel's x side")
    return sup_pass(kernel.dual, g.values, tol)
