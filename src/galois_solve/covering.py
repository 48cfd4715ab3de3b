"""Finite set-covering machinery.

Coverings here are plain unions of finite sets; essential elements are
the algebraic kind (an index is essential when some point is covered by
that index alone).  In a discrete space this coincides with the
topological notion, which is why the solver can use it directly.

A family is held as one flat array of universe positions with row
offsets, so a covering test is one count per point; labels are
attached only in the reports and in the ``sets`` view.  All iteration
follows the declared index and universe order, so reports and
witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import NotACoverError, ValidationError


def offsets(lengths) -> np.ndarray:
    """Row offsets (``indptr``) of rows of the given lengths."""
    return np.concatenate((np.zeros(1, np.intp), np.cumsum(lengths, dtype=np.intp)))


@dataclass(frozen=True, eq=False)
class CoverFamily:
    """A universe of points and an indexed family of subsets of it.

    The set of the k-th index of ``index_pool`` is
    ``indices[indptr[k]:indptr[k + 1]]``, its sorted universe positions:
    the row offsets and column indices of a sparse 0/1 matrix (CSR).
    Indices keep the order of ``index_pool`` and points the order of
    ``universe``.  ``sets`` is the same family by label.
    """

    universe: Tuple[str, ...]
    index_pool: Tuple[str, ...]
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
        return cls(uni, pool, offsets([len(r) for r in rows]),
                   np.fromiter(chain.from_iterable(rows), np.intp))

    @cached_property
    def sets(self) -> Dict[str, frozenset]:
        uni, ptr = self.universe, self.indptr.tolist()
        return {z: frozenset(map(uni.__getitem__, self.indices[a:b].tolist()))
                for z, a, b in zip(self.index_pool, ptr, ptr[1:])}

    @cached_property
    def _counts(self) -> np.ndarray:
        """How many indices cover each universe point (read-only)."""
        out = np.bincount(self.indices, minlength=len(self.universe))
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
        return bool(np.bincount(hits, minlength=len(self.universe)).all())

    def cut(self, pool: np.ndarray, points: np.ndarray) -> "CoverFamily":
        """The family of the indices where the mask ``pool`` holds, over
        the points where the mask ``points`` holds, renumbered.  When
        both masks hold everywhere it is this family itself."""
        if pool.all() and points.all():
            return self
        keep = np.repeat(pool, np.diff(self.indptr)) & points[self.indices]
        kept = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
        return CoverFamily(tuple(compress(self.universe, points)),
                           tuple(compress(self.index_pool, pool)),
                           offsets(np.diff(kept)[pool]),
                           (np.cumsum(points) - 1)[self.indices[keep]])


@dataclass(frozen=True)
class CoverReport:
    """Outcome of a covering test.

    ``essential`` lists the indices whose removal breaks the covering;
    each comes with a privately covered witness point.  The covering is
    minimal exactly when it covers and every index is essential.
    """

    is_cover: bool
    uncovered: Tuple[str, ...]
    essential: Tuple[str, ...]
    privately_covered: Dict[str, str]
    is_minimal: bool


def check_cover(family: CoverFamily) -> CoverReport:
    uni, pool = family.universe, family.index_pool
    uncovered = tuple(uni[k] for k in np.flatnonzero(family._counts == 0))
    rows, points = family._private
    essential = tuple(pool[k] for k in rows.tolist())
    is_cover = not uncovered
    return CoverReport(
        is_cover=is_cover,
        uncovered=uncovered,
        essential=essential,
        privately_covered={z: uni[k] for z, k in zip(essential, points.tolist())},
        is_minimal=is_cover and len(essential) == len(pool),
    )


def irredundant_subcover(family: CoverFamily) -> Tuple[str, ...]:
    """Greedy removal in index order, leaving a subcover in which every
    index is essential.  Deterministic given the declared order.  An
    index that covers a point alone is never removable, so only the
    others are tried."""
    counts = family._counts.copy()
    if not counts.all():
        raise NotACoverError("family does not cover the universe")
    keep = np.zeros(len(family.index_pool), dtype=bool)
    keep[family._private[0]] = True
    ptr = family.indptr.tolist()
    for k in np.flatnonzero(~keep).tolist():
        m = family.indices[ptr[k]:ptr[k + 1]]
        if (counts[m] > 1).all():
            counts[m] -= 1
        else:
            keep[k] = True
    return tuple(compress(family.index_pool, keep))
