"""Finite set-covering machinery.

Coverings here are plain unions of finite sets; essential elements are
the algebraic kind (an index is essential when some point is covered by
that index alone).  In a discrete space this coincides with the
topological notion, which is why the solver can use it directly.

Sets are held as arrays of universe positions, so a covering test is
one count per point; labels are attached only in the reports and in the
``sets`` view.  All iteration follows the declared index and universe
order, so reports and witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import LimitExceeded, NotACoverError, ValidationError

#: Exhaustive subset search is only promised at desk scale.
EXACT_LIMIT = 20


@dataclass(frozen=True, eq=False)
class CoverFamily:
    """A universe of points and an indexed family of subsets of it.

    ``members`` holds one sorted array of universe positions per index
    of ``index_pool``; points outside the universe are not members.
    Indices keep the order of ``index_pool`` and points the order of
    ``universe``.  ``sets`` is the same family by label.
    """

    universe: Tuple[str, ...]
    index_pool: Tuple[str, ...]
    members: Sequence[np.ndarray] = field(repr=False)

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
        members = [np.array(sorted(pos[w] for w in set(sets[z]) if w in pos),
                            dtype=np.intp) for z in pool]
        return cls(uni, pool, members)

    @cached_property
    def sets(self) -> Dict[str, frozenset]:
        uni = self.universe
        return {z: frozenset(uni[k] for k in m.tolist())
                for z, m in zip(self.index_pool, self.members)}

    @cached_property
    def _counts(self) -> np.ndarray:
        """How many indices cover each universe point (read-only)."""
        flat = np.concatenate([np.empty(0, np.intp), *self.members])
        out = np.bincount(flat, minlength=len(self.universe))
        out.flags.writeable = False
        return out

    def union(self, indices: Iterable[str]) -> frozenset:
        return frozenset().union(*(self.sets[z] for z in indices))

    def covers(self, indices: Iterable[str]) -> bool:
        hit = np.zeros(len(self.universe), dtype=bool)
        for z in indices:
            hit[self.members[self._at[z]]] = True
        return bool(hit.all())

    @cached_property
    def _at(self) -> Dict[str, int]:
        return {z: k for k, z in enumerate(self.index_pool)}


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
    counts, uni = family._counts, family.universe
    uncovered = tuple(uni[k] for k in np.flatnonzero(counts == 0))
    essential = []
    witnesses: Dict[str, str] = {}
    for z, m in zip(family.index_pool, family.members):
        private = m[counts[m] == 1]
        if private.size:
            essential.append(z)
            witnesses[z] = uni[private[0]]
    is_cover = not uncovered
    is_minimal = is_cover and len(essential) == len(family.index_pool)
    return CoverReport(
        is_cover=is_cover,
        uncovered=uncovered,
        essential=tuple(essential),
        privately_covered=witnesses,
        is_minimal=is_minimal,
    )


def irredundant_subcover(family: CoverFamily) -> Tuple[str, ...]:
    """Greedy removal in index order, leaving a subcover in which every
    index is essential.  Deterministic given the declared order."""
    counts = family._counts.copy()
    if not counts.all():
        raise NotACoverError("family does not cover the universe")
    result = []
    for z, m in zip(family.index_pool, family.members):
        if (counts[m] > 1).all():
            counts[m] -= 1
        else:
            result.append(z)
    return tuple(result)


def smallest_subcover(family: CoverFamily, limit: int = EXACT_LIMIT) -> Tuple[str, ...]:
    """Exact minimum-cardinality subcover by exhaustive search in size
    order, ties broken lexicographically by index order.  Set cover is
    NP-hard, so instances beyond ``limit`` indices are refused."""
    if len(family.index_pool) > limit:
        raise LimitExceeded(
            f"{len(family.index_pool)} sets exceed the exact-search limit {limit}"
        )
    if not check_cover(family).is_cover:
        raise NotACoverError("family does not cover the universe")
    for k in range(len(family.index_pool) + 1):
        for combo in combinations(family.index_pool, k):
            if family.covers(combo):
                return combo
    raise NotACoverError("unreachable: full pool fails to cover")  # pragma: no cover
