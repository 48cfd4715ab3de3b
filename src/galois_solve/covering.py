"""Finite set-covering machinery.

Coverings here are plain unions of finite sets; essential elements are
the algebraic kind (an index is essential when some point is covered by
that index alone).  In a discrete space this coincides with the
topological notion, which is why the solver can use it directly.

A family is held as positions: its universe and index pool as
positions into two spaces (a kernel's sides), its sets as one flat
array of universe positions with row offsets, so a covering test is
one count per point.  Labels are attached only when a view or a report
is read.  All iteration
follows the declared index and universe order, so reports and
witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import NotACoverError, ValidationError
from .kernel import labels_of


def offsets(lengths) -> np.ndarray:
    """Row offsets (``indptr``) of rows of the given lengths."""
    return np.concatenate((np.zeros(1, np.intp), np.cumsum(lengths, dtype=np.intp)))


@dataclass(frozen=True, eq=False)
class CoverFamily:
    """A universe of points and an indexed family of subsets of it.

    The universe is the points at the ascending positions ``points`` of
    the space ``universe_space``, and the index pool those at ``pool``
    of ``pool_space``: a space is a tuple of labels or a grid (see
    :class:`galois_solve.engine.FunctionOnSpace`).  The set of the k-th
    index of the pool is ``indices[indptr[k]:indptr[k + 1]]``, its
    sorted positions in the universe: the row offsets and column
    indices of a sparse 0/1 matrix (CSR).  Labels are attached only
    when read: ``universe``, ``index_pool``, and ``sets``, the same
    family by label.
    """

    universe_space: object
    pool_space: object
    points: np.ndarray = field(repr=False)
    pool: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, universe: Iterable, sets: Mapping,
              index_pool: Optional[Iterable] = None) -> "CoverFamily":
        """The family of label sets ``sets``, clipped to the universe."""
        uni = tuple(dict.fromkeys(universe))
        pool = tuple(index_pool) if index_pool is not None else tuple(sets)
        if len(set(pool)) != len(pool):
            raise ValidationError("duplicate indices in the pool")
        missing = [z for z in pool if z not in sets]
        if missing:
            raise ValidationError(f"pool indices without sets: {missing[:4]}")
        pos = {w: k for k, w in enumerate(uni)}
        rows = [sorted(pos[w] for w in set(sets[z]) if w in pos) for z in pool]
        return cls(uni, pool, np.arange(len(uni)), np.arange(len(pool)),
                   offsets([len(r) for r in rows]),
                   np.fromiter(chain.from_iterable(rows), np.intp))

    @cached_property
    def universe(self) -> Tuple[str, ...]:
        return _pick(labels_of(self.universe_space), self.points)

    @cached_property
    def index_pool(self) -> Tuple[str, ...]:
        return _pick(labels_of(self.pool_space), self.pool)

    @cached_property
    def sets(self) -> Dict[str, frozenset]:
        uni, ptr = self.universe, self.indptr.tolist()
        return {z: frozenset(map(uni.__getitem__, self.indices[a:b].tolist()))
                for z, a, b in zip(self.index_pool, ptr, ptr[1:])}

    @cached_property
    def _counts(self) -> np.ndarray:
        """How many indices cover each universe point (read-only)."""
        out = np.bincount(self.indices, minlength=len(self.points))
        out.flags.writeable = False
        return out

    @cached_property
    def _private(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pool positions of the indices that cover some point alone,
        ascending, and the first such point of each."""
        at = np.flatnonzero((self._counts == 1)[self.indices])
        rows, first = np.unique(np.searchsorted(self.indptr, at, side="right") - 1,
                                return_index=True)
        return rows, self.indices[at[first]]

    def covers(self, indices: Iterable[str]) -> bool:
        chosen = set(indices)
        rows = np.array([z in chosen for z in self.index_pool], dtype=bool)
        hits = self.indices[np.repeat(rows, np.diff(self.indptr))]
        return bool(np.bincount(hits, minlength=len(self.points)).all())

    def cut(self, pool: np.ndarray, points: np.ndarray) -> "CoverFamily":
        """The family of the indices where the mask ``pool`` holds, over
        the points where the mask ``points`` holds, renumbered.  When
        both masks hold everywhere it is this family itself."""
        if pool.all() and points.all():
            return self
        keep = np.repeat(pool, np.diff(self.indptr)) & points[self.indices]
        kept = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
        return CoverFamily(self.universe_space, self.pool_space,
                           self.points[points], self.pool[pool],
                           offsets(np.diff(kept)[pool]),
                           (np.cumsum(points) - 1)[self.indices[keep]])


def _pick(labels: Tuple[str, ...], at: np.ndarray) -> Tuple[str, ...]:
    """The labels at the positions ``at``."""
    return tuple(map(labels.__getitem__, at.tolist()))


@dataclass(frozen=True, eq=False)
class CoverReport:
    """Outcome of a covering test, held as positions in ``family``.

    ``uncovered`` lists the points no index covers, and ``essential``
    the indices whose removal breaks the covering; each comes with a
    privately covered witness point in ``privately_covered``.  These
    are labels, attached when first read; reports are equal when they
    are.  The covering is minimal exactly when it covers and every
    index is essential.
    """

    family: CoverFamily = field(repr=False)
    uncovered_at: np.ndarray
    essential_at: np.ndarray
    private_at: np.ndarray

    @property
    def is_cover(self) -> bool:
        return not len(self.uncovered_at)

    @property
    def is_minimal(self) -> bool:
        return self.is_cover and len(self.essential_at) == len(self.family.pool)

    @cached_property
    def uncovered(self) -> Tuple[str, ...]:
        return _pick(self.family.universe, self.uncovered_at)

    @cached_property
    def essential(self) -> Tuple[str, ...]:
        return _pick(self.family.index_pool, self.essential_at)

    @cached_property
    def privately_covered(self) -> Dict[str, str]:
        return dict(zip(self.essential, _pick(self.family.universe, self.private_at)))

    def __eq__(self, other):
        if not isinstance(other, CoverReport):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in (
            "is_cover", "uncovered", "essential", "privately_covered", "is_minimal"))


def check_cover(family: CoverFamily) -> CoverReport:
    rows, points = family._private
    return CoverReport(family, np.flatnonzero(family._counts == 0), rows, points)


#: Members per tried index up to which :func:`irredundant_subcover`
#: reads its rows as Python integers; longer rows stay in numpy, which
#: removes the tried indices in batches of up to :data:`_BATCH`.
_SHORT_ROWS = 16
_BATCH = 64


def irredundant_subcover(family: CoverFamily) -> np.ndarray:
    """Greedy removal in index order, leaving a subcover in which every
    index is essential: its positions in the pool, ascending.
    Deterministic given the declared order.  An index that covers a
    point alone is never removable, so only the others are tried, and
    only their rows are read.

    Long rows are tried in consecutive batches, each read from the
    family's ``indices`` (one slice when no kept row lies between its
    rows), so no copy of every tried row is made.  A batch whose members,
    counted with multiplicity ``d``, all keep ``counts > d`` is exactly
    one that the greedy would remove whole, one index at a time, so it
    is removed at once.  Batches double after each removal, up to
    ``_BATCH``, and shrink by a factor of 4 when one fails; a failed
    batch of one index is kept (exponential search, Bentley and Yao
    1976).  The result is the one-at-a-time greedy's."""
    counts = family._counts
    if not counts.all():
        raise NotACoverError("family does not cover the universe")
    keep = np.zeros(len(family.pool), dtype=bool)
    keep[family._private[0]] = True
    tried = np.flatnonzero(~keep)
    sizes = np.diff(family.indptr)
    if sizes[tried].sum() > _SHORT_ROWS * len(tried):  # long rows, in numpy, in batches
        counts, ptr, ks = counts.copy(), family.indptr.tolist(), tried.tolist()
        i, size = 0, 1
        while i < len(ks):
            size = min(size, len(ks) - i)
            lo, hi = ks[i], ks[i + size - 1]
            if hi - lo == size - 1:  # no kept row between: one slice of the rows
                m = family.indices[ptr[lo]:ptr[hi + 1]]
            else:
                m = np.concatenate([family.indices[ptr[k]:ptr[k + 1]] for k in ks[i:i + size]])
            if size == 1:  # no multiplicities to count
                removable = (counts[m] > 1).all()
                if removable:
                    counts[m] -= 1
            else:
                d = np.bincount(m)
                removable = (counts[m] > d[m]).all()
                if removable:
                    counts[:len(d)] -= d
            if removable:
                i += size
                size = min(2 * size, _BATCH)
            elif size == 1:
                keep[lo] = True
                i += 1
            else:
                size = max(1, size // 4)
        return np.flatnonzero(keep)
    counts = counts.tolist()
    members = family.indices[np.repeat(~keep, sizes)].tolist()
    at = offsets(sizes[tried]).tolist()
    for k, a, b in zip(tried.tolist(), at, at[1:]):
        m = members[a:b]
        if all(counts[w] > 1 for w in m):
            for w in m:
                counts[w] -= 1
        else:
            keep[k] = True
    return np.flatnonzero(keep)
