"""Core transforms of a kernel: the forward map, its adjoint, the
projector, and the inverse subdifferentials of a target, which are the
covering sets of the existence criterion.

All operations are pure functions of immutable inputs.  Every argmax
set, and every transform but a recorded structure's closed form, comes
from one blocked max-plus reduction, :func:`sup_pass`, which the grid
experiments in :mod:`galois_solve.lab` call too: a block holds the
slices evaluated at one x per row, and its rows are reduced to their
maxima and, on request, near-maximisers.  The adjoint is the forward
map of the dual kernel (:attr:`~galois_solve.kernel.Kernel.dual`).
Every kernel builds its blocks the same way from its
:class:`~galois_solve.kernel.Slices`: offsets minus the input (times
the slopes, in a table of scalar forms), then the signed-power and
tabulated entries of a table of scalar forms overwritten from their
parameter arrays.  Maxima are order-independent, so data-parallel
evaluation of the blocks is deterministic.  A pass over more than
:data:`~galois_solve.kernel.DENSE_LIMIT` entries, of any table, runs
its blocks on as many threads as the process may use CPUs, capped at
the number of blocks; smaller passes, which threads were measured to
slow down, run serially.  The calling thread runs its share of the
blocks, and a threaded pass starts the other threads it uses and ends
them before it returns, so no thread outlives a pass and a forked
child inherits none.  A pass over a stored table writes
its blocks into one scratch array per thread, reused from block to
block; a generated block is a fresh array, evaluated in place.
A stored coupling table whose finite entries are at most
:data:`~galois_solve.kernel.SPARSE_SHARE` of it is read in no block:
its passes reduce those entries alone, kept in compressed sparse rows,
and run on threads above ``DENSE_LIMIT`` of them.  A pass without
structure or support reads spans of 16 to 256 rows, of at most 2^16
entries each, which stay in cache while they are reduced; the spans of
a structure, which bound its windows, and of a support keep 256 rows.
A transform of a coupling table without either, at an input that is
+inf on some columns, reads only the other columns, as rows of the
dual's table, since a +inf column raises no maximum: verifying a
witness that is +inf off a small subcover costs what it keeps.  What
:func:`sup_pass` and :func:`slice_table` return is fresh and the
caller's own: it aliases no scratch block and no table.

Argmax sets travel as one flat array of sorted indices with row offsets,
in a :class:`~galois_solve.covering.CoverFamily`, which turns them into
label sets only when its ``sets`` view is read.

A kernel that records a ``structure`` (see
:class:`~galois_solve.kernel.Kernel`), as a supermodular 1-D grid
family does, reduces in each block of rows only the columns that the
structure finds can tie there, read from its coupling table: for its
argmax sets, and for its transforms unless the structure has a closed
form of its own.  The structure finds those columns from the block's
two boundary rows, which it reads through the same block reader.  A
table of forms has no structure, and is always read at full width.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .covering import CoverFamily, offsets
from .errors import ValidationError
from .extreal import DEFAULT_TOL, INFINITIES, ExtReal, parse
from . import kernel as kernel_mod
from .kernel import GridSpec, Kernel, labels_of, same_space

_BLOCK = 256


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def run_spans(run: Callable, spans: Sequence, entries: int) -> List:
    """``[run(s) for s in spans]``, on threads when the spans hold more
    than :data:`~galois_solve.kernel.DENSE_LIMIT` entries in all: as
    many as the process may use CPUs, capped at the number of spans.
    The calling thread runs every ``threads``-th span from the first,
    and an executor opened for this call runs the others, in the same
    stride, on ``threads - 1`` threads that end with the call; the
    results come back in span order.  An exception in a span is raised
    here, once every span has stopped."""
    threads = 1
    if entries > kernel_mod.DENSE_LIMIT:
        threads = min(_cpus(), len(spans))
    if threads <= 1:
        return [run(s) for s in spans]

    def share(t: int) -> List:
        return [run(s) for s in spans[t::threads]]

    out = [None] * len(spans)
    with ThreadPoolExecutor(threads - 1, thread_name_prefix="galois-pass") as pool:
        futures = [pool.submit(share, t) for t in range(1, threads)]
        out[::threads] = share(0)
    for t, future in enumerate(futures, 1):
        out[t::threads] = future.result()
    return out


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
        known = set(labels)
        if not mapping.keys() >= known:
            missing = [l for l in labels if l not in mapping]
            raise ValidationError(f"missing values for labels: {missing[:4]}")
        if len(mapping) > len(known):
            extra = [k for k in mapping if k not in known]
            raise ValidationError(f"values for unknown labels: {extra[:4]}")
        try:
            values = [parse(mapping[l], "a value", INFINITIES) for l in labels]
        except ValidationError:  # again, to name the label refused
            values = [parse(mapping[l], f"value at {l!r}", INFINITIES) for l in labels]
        return cls(space, np.array(values))

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
    x, as ``block(lo, hi, jlo=0, jhi=n_in, out=None)``: rows lo:hi and
    columns jlo:jhi, bit for bit those of the full-width block.  Only a
    coupling table is read in column windows, as a structure's passes
    ask; a table of forms is read at full width.

    Every entry is first taken as c - m*lam, with -inf absorbing: c
    never holds +inf and every slope is finite and positive, so the one
    NaN an entry can take is an Off entry's -inf - (-inf), mended to
    -inf where ``lam`` holds -inf.  The signed-power and tabulated
    entries are then overwritten by their own closed forms.

    A block the table hands out fresh (a generated table's) is evaluated
    in place and returned.  Otherwise it is written into ``out``, the
    caller's scratch array of its shape, and returned; the next block
    written there overwrites it.  Without ``out`` every block is a fresh
    array.  The offsets a table hands out read-only are never written to.
    """
    slices = kernel.slices()
    n_in = len(lam)
    mend = np.isneginf(lam).any()

    def block(lo: int, hi: int, jlo: int = 0, jhi: int = n_in,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        rows = slice(lo, hi)
        src = slices.offsets((rows, slice(jlo, jhi)))
        if src.flags.writeable:
            out = src
        elif out is None:
            out = np.empty(src.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            if slices.m is None:
                np.subtract(src, lam[jlo:jhi], out=out)
            else:  # only read-only offsets come with slopes, so out is not src
                np.multiply(slices.m[rows], lam, out=out)
                np.subtract(src, out, out=out)
            if mend:
                np.copyto(out, -math.inf, where=np.isnan(out))
            for forms in slices.forms:
                a, b = np.searchsorted(forms.at, (lo * n_in, hi * n_in))
                at = forms.at[a:b]
                np.put(out, at - lo * n_in,
                       forms.values(lam[at % n_in], *(p[a:b] for p in forms.params)))
        return out

    return block


def slice_table(kernel: Kernel, lam: np.ndarray) -> np.ndarray:
    """The whole table of the kernel's slices at ``lam`` that the
    reduction maximises, one row per x."""
    return _blocks(kernel, lam)(0, kernel.shape[0])


def sup_pass(kernel: Kernel, lam: np.ndarray, tol: Optional[float] = None):
    """The one max-plus reduction behind both transforms: the forward
    map of ``kernel``, and the adjoint as the forward map of its dual.

    For each x it returns the supremum over y of the slices evaluated
    at ``lam``.  With ``tol`` it also returns the sets of y attaining
    it, one per x as a :class:`CoverFamily` over the y side: the
    entries with ``value >= sup - tol``, so that ``tol=0`` keeps the
    exact maximisers and a +inf supremum only the entries equal to it.
    A supremum of -inf is attained by the whole support.

    A kernel's ``structure``, when it has one, gives the transform
    without ``tol`` if its ``transform`` returns one.  Otherwise each
    block of rows reduces only the columns of its window, when the
    structure bounds them (at ``tol``, or at 0 for the transform alone):
    the maxima and the sets are those of the full-width blocks, bit for
    bit.  Every block, the structure's boundary rows included, comes
    from the kernel's table, by :func:`_blocks`.

    A coupling table with neither a structure nor a support gives the
    transform at a ``lam`` that is +inf on some columns from the other
    columns alone, by :func:`_kept_pass`, again bit for bit.

    A sparse stored coupling table, whose :class:`~galois_solve.kernel.Slices`
    carry its ``support``, is read in no block: each span of rows
    reduces only its finite entries.  Those go through the same
    subtraction as in a block, and every other entry of a block is -inf,
    which beats no finite maximum and meets no finite or +inf threshold;
    where the maximum is -inf, the threshold takes the whole support.
    So the maxima and the sets are again those of the full-width blocks,
    bit for bit.

    The sets' members are copied span by span into one array, each
    span's let go once copied, so that they are held once; each row's
    count is read from the sorted positions of its span's members.
    """
    structure = kernel.structure
    top = structure.transform(lam) if tol is None and structure is not None else None
    if top is not None:
        return top, None
    n_out, n_in = kernel.shape
    slices = kernel.slices()
    plain = structure is None and slices.support is None
    if plain and tol is None and slices.m is None and np.isposinf(lam).any():
        return _kept_pass(kernel, lam), None
    rows = _span_rows(n_in) if plain else _BLOCK
    spans = [(lo, min(lo + rows, n_out)) for lo in range(0, n_out, rows)]
    if slices.support is None:
        done = _block_pass(kernel, lam, tol, spans)
    else:
        done = _support_pass(slices.support, lam, tol, spans)
    top = np.concatenate([d[0] for d in done])
    if tol is None:
        return top, None
    indptr = offsets(np.concatenate([d[1] for d in done]))
    indices = np.empty(indptr[-1], dtype=np.intp)
    for k, (lo, hi) in enumerate(spans):  # each span's members are let go once copied
        indices[indptr[lo]:indptr[hi]] = done[k][2]
        done[k] = None
    return top, CoverFamily(kernel.y_space, kernel.x_space, np.arange(n_in),
                            np.arange(n_out), indptr, indices)


def _span_rows(width: int) -> int:
    """Rows per span of a pass read at full ``width``: 16 to 256, and at
    most 2^16 entries (512 KB of values), so that a block stays in cache
    while it is reduced."""
    return max(16, min(_BLOCK, 2**16 // width))


def _kept_pass(kernel: Kernel, lam: np.ndarray) -> np.ndarray:
    """The transform of a coupling table at a ``lam`` that is +inf on
    some columns, read in the columns K where it is not.

    An entry at a +inf column is c - inf = -inf, which raises no
    maximum, so each x's supremum is the maximum over K alone (-inf
    when K is empty).  K is read as rows of the dual's table, in spans
    of cache size, each entry the same IEEE subtraction as in a block,
    its one NaN (-inf - (-inf)) mended to -inf likewise.  Each span is
    reduced over its columns and the spans are merged by ``np.maximum``
    in span order, so the result does not depend on the thread count.

    Only a zero maximum can hang on the order of the reduction: -0.0 and
    0.0 tie, and a generated table may hold -0.0.  Those rows of such a
    table are reduced again at full width, as a block reduces them."""
    n_out = kernel.shape[0]
    kept = np.flatnonzero(lam < math.inf)
    read = kernel.dual.slices().offsets
    mend = np.isneginf(lam).any()
    step = _span_rows(n_out)

    def run(cols: np.ndarray) -> np.ndarray:
        src = read(cols)
        with np.errstate(invalid="ignore", over="ignore"):
            vals = np.subtract(src, lam[cols][:, None],
                               out=src if src.flags.writeable else None)
        if mend:
            np.copyto(vals, -math.inf, where=np.isnan(vals))
        return vals.max(axis=0)

    top = np.full(n_out, -math.inf)
    spans = [kept[a:a + step] for a in range(0, len(kept), step)]
    for part in run_spans(run, spans, len(kept) * n_out):
        np.maximum(top, part, out=top)
    zero = np.flatnonzero(top == 0)
    if kernel.is_grid and len(zero):  # only c = -0.0 gives c - lam = -0.0
        block = _blocks(kernel, lam)
        for r in zero.tolist():
            top[r] = block(r, r + 1).max()
    return top


def _support_pass(support: kernel_mod.Csr, lam: np.ndarray, tol: Optional[float],
                  spans: List[Tuple[int, int]]) -> List:
    """The reduced spans of a pass over the finite entries ``support``
    of a table alone: each entry taken as c - lam, each row reduced from
    its start in the support, which A1/A2 keep nonempty, and the
    near-maximisers selected there, as in a block."""
    data, cols, indptr = support

    def run(span: Tuple[int, int]):
        lo, hi = span
        a = indptr[lo]
        starts = indptr[lo:hi + 1] - a
        at = cols[a:indptr[hi]]
        with np.errstate(over="ignore"):
            vals = data[a:indptr[hi]] - lam[at]
        top = np.maximum.reduceat(vals, starts[:-1])
        if tol is None:
            return top, None, None
        hit = np.flatnonzero(vals >= np.repeat(top - tol, np.diff(starts)))
        return top, np.diff(np.searchsorted(hit, starts)), at[hit]

    return run_spans(run, spans, int(indptr[-1]))


def _block_pass(kernel: Kernel, lam: np.ndarray, tol: Optional[float],
                spans: List[Tuple[int, int]]) -> List:
    """The reduced spans of a pass over blocks of the kernel's table,
    each read in its structure's window, if it has one."""
    n_out, n_in = kernel.shape
    structure = kernel.structure
    block = _blocks(kernel, lam)
    windows = (structure and structure.windows(block, lam, 0.0 if tol is None else tol, spans)
               or [(0, n_in)] * len(spans))
    rows = spans[0][1] - spans[0][0]
    scratch = threading.local()  # one value block and tie mask per thread

    def run(span: Tuple[Tuple[int, int], Tuple[int, int]]):
        (lo, hi), (jlo, jhi) = span
        shape = (hi - lo, jhi - jlo)
        if not hasattr(scratch, "vals"):
            scratch.vals = np.empty(rows * n_in)
        vals = block(lo, hi, jlo, jhi, scratch.vals[:shape[0] * shape[1]].reshape(shape))
        top = vals.max(axis=1)
        if tol is None:
            return top, None, None
        if not hasattr(scratch, "hit"):
            scratch.hit = np.empty(rows * n_in, dtype=bool)
        hit = np.greater_equal(vals, (top - tol)[:, None],
                               out=scratch.hit[:vals.size].reshape(shape))
        for r in np.flatnonzero(np.isneginf(top)):  # full width: windows need a finite lam
            hit[r] = False
            hit[r, list(kernel.support_row(lo + r))] = True
        # flat positions in row-major order, row r's from r*width on, columns ascending
        cols = np.flatnonzero(hit)
        counts = np.diff(np.searchsorted(cols, np.arange(shape[0] + 1) * shape[1]))
        cols %= shape[1]  # in place: no second array of the members
        cols += jlo
        return top, counts, cols

    entries = sum((hi - lo) * (jhi - jlo) for (lo, hi), (jlo, jhi) in zip(spans, windows))
    return run_spans(run, list(zip(spans, windows)), entries)


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
