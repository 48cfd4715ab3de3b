"""Core transforms of a kernel: the forward map, its adjoint, the
projector, subdifferentials and their inverse maps, and domain taxonomy.

All operations are pure functions of immutable inputs.  Every argmax
set, and every transform of a kernel without recorded structure, comes
from one blocked max-plus reduction, :func:`sup_pass`, which the grid
experiments in :mod:`galois_solve.lab` call too: a block holds the
slices evaluated at one output index per row, and its rows are reduced
to their maxima and, on request, near-maximisers.  Every kernel builds
its blocks the same way from its :class:`~galois_solve.kernel.Slices`:
offsets minus the input (times the slopes, when some slope is not 1),
then the signed-power and tabulated entries of a table of scalar forms
overwritten from their parameter arrays.
Maxima are order-independent, so optional data-parallel evaluation of
the blocks is deterministic.  Its thread count is the
GALOIS_SOLVE_THREADS environment variable, capped at the CPU count and
the number of blocks.

Argmax sets travel as sorted arrays of indices; :class:`SubdiffMap`
turns them into label sets only when its ``sets`` view is read.

Kernels that record a :class:`LipschitzLine` (the distance kernels
-a|y - x| on 1-D grids) take a single-threaded O(n + m) path for the
transforms alone; their argmax sets still use the blocked reduction.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .extreal import DEFAULT_TOL, ExtReal, as_extreal, close
from .kernel import Kernel, LipschitzLine

_BLOCK = 256


def _thread_count() -> int:
    cap = os.environ.get("GALOIS_SOLVE_THREADS")
    if cap is None:
        return 1
    try:
        return max(1, int(cap))
    except ValueError:
        return 1


@dataclass(frozen=True, eq=False)
class FunctionOnSpace:
    """A function on a finite label set, valued in the extended reals."""

    labels: Tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (len(self.labels),):
            raise ValidationError("one value per label is required")
        if np.isnan(arr).any():
            raise ValidationError("NaN is not an extended real value")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {l: k for k, l in enumerate(self.labels)}

    @classmethod
    def from_mapping(cls, labels: Iterable[str], mapping: Mapping) -> "FunctionOnSpace":
        labels = tuple(labels)
        missing = [l for l in labels if l not in mapping]
        if missing:
            raise ValidationError(f"missing values for labels: {missing[:4]}")
        extra = set(mapping) - set(labels)
        if extra:
            raise ValidationError(f"values for unknown labels: {sorted(extra)[:4]}")
        vals = [float(as_extreal(mapping[l])) for l in labels]
        return cls(labels, np.array(vals))

    @classmethod
    def constant(cls, labels: Iterable[str], value) -> "FunctionOnSpace":
        labels = tuple(labels)
        return cls(labels, np.full(len(labels), float(as_extreal(value))))

    @classmethod
    def dirac(cls, labels: Iterable[str], at: str, value) -> "FunctionOnSpace":
        """The function equal to ``value`` at ``at`` and +inf elsewhere."""
        labels = tuple(labels)
        vals = np.full(len(labels), math.inf)
        try:
            vals[labels.index(at)] = float(as_extreal(value))
        except ValueError:
            raise ValidationError(f"unknown label: {at!r}") from None
        return cls(labels, vals)

    def value(self, label: str) -> ExtReal:
        return ExtReal(self.values[self._index[label]])

    def as_dict(self) -> Dict[str, ExtReal]:
        return {l: ExtReal(v) for l, v in zip(self.labels, self.values)}

    def with_value(self, label: str, value) -> "FunctionOnSpace":
        vals = self.values.copy()
        vals[self._index[label]] = float(as_extreal(value))
        return FunctionOnSpace(self.labels, vals)

    def pointwise_max(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._require_same_space(other)
        return FunctionOnSpace(self.labels, np.maximum(self.values, other.values))

    def pointwise_min(self, other: "FunctionOnSpace") -> "FunctionOnSpace":
        self._require_same_space(other)
        return FunctionOnSpace(self.labels, np.minimum(self.values, other.values))

    def leq(self, other: "FunctionOnSpace", tol: float = 0.0) -> bool:
        """Pointwise order, with ``tol`` of slack on finite comparisons."""
        self._require_same_space(other)
        return bool(np.all(self.values <= other.values + tol))

    def approx_eq(self, other: "FunctionOnSpace", tol: float = DEFAULT_TOL) -> bool:
        self._require_same_space(other)
        return bool(np.all(close(self.values, other.values, tol)))

    def _require_same_space(self, other: "FunctionOnSpace"):
        if self.labels != other.labels:
            raise ValidationError("functions live on different spaces")

    def __repr__(self):
        inner = ", ".join(f"{l}={ExtReal(v)}" for l, v in zip(self.labels, self.values))
        return f"FunctionOnSpace({inner})"


@dataclass(frozen=True)
class DomainReport:
    """The four domain sets of a function on a finite (discrete) space."""

    ldom: Tuple[str, ...]
    udom: Tuple[str, ...]
    dom: Tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SubdiffMap:
    """A set-valued map from one side's labels into subsets of the other.

    ``ties`` holds, per source index, the sorted indices of its image on
    the target side; ``sets`` is the same map by label.  ``sup`` holds,
    per source label, the supremum whose near-maximisers make up the
    sets, when the map was built from one.
    """

    source_labels: Tuple[str, ...]
    target_labels: Tuple[str, ...]
    ties: Sequence[np.ndarray] = field(repr=False)
    sup: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def sets(self) -> Dict[str, frozenset]:
        tl = self.target_labels
        return {s: frozenset(tl[i] for i in idx.tolist())
                for s, idx in zip(self.source_labels, self.ties)}

    def invert(self) -> "SubdiffMap":
        sizes = [len(idx) for idx in self.ties]
        flat = np.concatenate([np.empty(0, np.intp), *self.ties])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        # a stable sort by target keeps each target's sources ascending
        order = np.argsort(flat, kind="stable")
        ends = np.cumsum(np.bincount(flat, minlength=len(self.target_labels)))
        return SubdiffMap(self.target_labels, self.source_labels,
                          np.split(owner[order], ends[:-1]))


# ----------------------------------------------------------------------
# the sup-of-slices transforms


def _blocks(kernel: Kernel, lam: np.ndarray, by_rows: bool):
    """Blocks of the kernel's slices evaluated at ``lam``, one row per
    output index.

    Every entry is first taken as c - m*lam, with -inf absorbing: c
    never holds +inf, so a +inf in ``lam`` already yields -inf, and only
    -inf - (-inf) needs mending, in the columns where ``lam`` is -inf.
    The signed-power and tabulated entries are then overwritten by
    their own closed forms.
    """
    side = kernel.slices(by_rows)
    n_in = len(lam)
    neg = np.flatnonzero(np.isneginf(lam))

    def block(lo: int, hi: int) -> np.ndarray:
        src = side.offsets(slice(lo, hi))
        out = src if src.flags.writeable else np.empty(src.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            if side.m is None:
                np.subtract(src, lam, out=out)
            else:
                np.subtract(src, side.m[lo:hi] * lam, out=out)
            if neg.size:
                sub = out[:, neg]
                sub[np.isnan(sub)] = -math.inf
                out[:, neg] = sub
            for forms in side.forms:
                a, b = np.searchsorted(forms.at, (lo * n_in, hi * n_in))
                pos = forms.at[a:b] - lo * n_in
                np.put(out, pos, forms.values(
                    lam[pos % n_in], *(p[a:b] for p in forms.params)))
        return out

    return block


def _prefix_argmax(s: np.ndarray) -> np.ndarray:
    """For every k, the index of a maximum of ``s[:k + 1]``."""
    at_top = s == np.maximum.accumulate(s)
    return np.maximum.accumulate(np.where(at_top, np.arange(len(s)), 0))


def _envelope_pass(line: LipschitzLine, lam: np.ndarray,
                   by_rows: bool) -> np.ndarray:
    """The transform of a 1-D Lipschitz distance kernel in O(n + m).

    With bbar = -a|inner - out| over ascending points, the supremum at
    an output point splits at that point: to its left the entries are
    (a*inner - lam) - a*out, to its right (-a*inner - lam) + a*out.  A
    prefix and a suffix argmax pick one maximiser per side, and the
    result is the larger of the two table entries there, evaluated with
    the table's own operations.  Each value is therefore an entry of its
    row; where the two splits round differently it can sit below the
    row maximum by a few ulps of a*(|x| + |y|) + |lam|.
    """
    out, inner = (line.xp, line.yp) if by_rows else (line.yp, line.xp)
    a, m = line.a, len(inner)
    left = _prefix_argmax(a * inner - lam)
    right = m - 1 - _prefix_argmax((-a * inner - lam)[::-1])[::-1]
    # inner[:n_left] <= out, and inner[n_below:] >= out
    n_left = np.searchsorted(inner, out, side="right")
    n_below = np.searchsorted(inner, out, side="left")
    jr = right[np.minimum(n_below, m - 1)]
    jl = np.where(n_left > 0, left[np.maximum(n_left - 1, 0)], jr)
    jr = np.where(n_below < m, jr, jl)

    def value(j: np.ndarray) -> np.ndarray:
        x, y = (out, inner[j]) if by_rows else (inner[j], out)
        return line.entries(x, y) - lam[j]

    return np.maximum(value(jl), value(jr))


def sup_pass(kernel: Kernel, lam: np.ndarray, by_rows: bool,
             near: Optional[Callable] = None):
    """The one max-plus reduction behind both transforms.

    For each output index (x for the forward map, y for the adjoint) it
    returns the supremum over the other side of the slices evaluated at
    ``lam``.  With ``near(vals, sup)``, a mask of the entries that count
    as attaining their row's finite or +inf supremum, it also returns
    their sorted indices per output; a supremum of -inf is attained by
    the whole support.  Without ``near``, kernels that record a
    :class:`LipschitzLine` take :func:`_envelope_pass` instead.
    """
    if near is None and kernel.lipschitz_line is not None:
        return _envelope_pass(kernel.lipschitz_line, lam, by_rows), []
    n_out = kernel.shape[0 if by_rows else 1]
    block = _blocks(kernel, lam, by_rows)
    support = kernel.support_row if by_rows else kernel.support_col

    def run(span: Tuple[int, int]):
        lo, hi = span
        vals = block(lo, hi)
        top = vals.max(axis=1)
        if near is None:
            return top, []
        hit = near(vals, top)
        for r in np.flatnonzero(np.isneginf(top)):
            hit[r] = False
            hit[r, list(support(lo + r))] = True
        rows, cols = np.nonzero(hit)
        ends = np.searchsorted(rows, np.arange(hi - lo + 1)).tolist()
        return top, [cols[a:b] for a, b in zip(ends, ends[1:])]

    spans = [(lo, min(lo + _BLOCK, n_out)) for lo in range(0, n_out, _BLOCK)]
    threads = min(_thread_count(), os.cpu_count() or 1, len(spans))
    if threads <= 1:
        parts = [run(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, spans))
    return (np.concatenate([top for top, _ in parts]),
            [t for _, part in parts for t in part])


def apply_forward(kernel: Kernel, f: FunctionOnSpace) -> FunctionOnSpace:
    """The connection itself: (Bf)(x) = sup_y b(x, y, f(y))."""
    if f.labels != kernel.y_labels:
        raise ValidationError("function labels do not match the kernel's y side")
    return FunctionOnSpace(kernel.x_labels, sup_pass(kernel, f.values, True)[0])


def apply_adjoint(kernel: Kernel, g: FunctionOnSpace) -> FunctionOnSpace:
    """The adjoint connection: (B°g)(y) = sup_x b°(y, x, g(x))."""
    if g.labels != kernel.x_labels:
        raise ValidationError("function labels do not match the kernel's x side")
    return FunctionOnSpace(kernel.y_labels, sup_pass(kernel, g.values, False)[0])


def projector(kernel: Kernel, g: FunctionOnSpace) -> FunctionOnSpace:
    """The composition of the two transforms: the largest element of the
    forward image below g.  Always <= g pointwise."""
    return apply_forward(kernel, apply_adjoint(kernel, g))


# ----------------------------------------------------------------------
# argmax machinery


def subdiff_inverse(kernel: Kernel, g: FunctionOnSpace,
                    tol: float = DEFAULT_TOL) -> SubdiffMap:
    """For each y, the set of x in the column support attaining
    sup_x b°(y, x, g(x)); these are the covering sets of the existence
    criterion.  All near-maximisers within ``tol`` of a finite supremum
    are included; +inf is attained only by the entries equal to it.
    The map's ``sup`` is the adjoint transform of g."""
    if g.labels != kernel.x_labels:
        raise ValidationError("function labels do not match the kernel's x side")
    top, ties = sup_pass(kernel, g.values, False,
                         lambda vals, top: vals >= (top - tol)[:, None])
    return SubdiffMap(kernel.y_labels, kernel.x_labels, ties, sup=top)


def subdiff(kernel: Kernel, f: FunctionOnSpace,
            tol: float = DEFAULT_TOL) -> SubdiffMap:
    """For each y, the set of x in the support where the supremum
    defining the forward transform is attained at y: equal to it, or
    within ``tol`` when both are finite."""
    if f.labels != kernel.y_labels:
        raise ValidationError("function labels do not match the kernel's y side")

    _, ties = sup_pass(kernel, f.values, True,
                       lambda vals, top: close(vals, top[:, None], tol))
    return SubdiffMap(kernel.x_labels, kernel.y_labels, ties).invert()


def domain_report(h: FunctionOnSpace) -> DomainReport:
    """Lower/upper/two-sided domains.  On a discrete space the inner
    domain coincides with the domain, so it is not reported apart."""
    ldom = tuple(l for l, v in zip(h.labels, h.values) if v < math.inf)
    udom = tuple(l for l, v in zip(h.labels, h.values) if v > -math.inf)
    both = set(ldom) & set(udom)
    dom = tuple(l for l in h.labels if l in both)
    return DomainReport(ldom=ldom, udom=udom, dom=dom)
