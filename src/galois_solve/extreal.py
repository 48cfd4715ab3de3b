"""Points of the extended real line R u {-inf, +inf}.

:class:`ExtReal` is one point, ordered as usual; arrays of them are
plain float arrays, compared up to a tolerance by :func:`close`.  In
JSON the infinities travel as the strings "-inf" and "+inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

#: Default absolute tolerance for comparing finite values.  Argmax sets
#: (subdifferentials) must be stable under floating-point noise.
DEFAULT_TOL = 1e-9

Real = Union[int, float]


@dataclass(frozen=True, slots=True, order=True)
class ExtReal:
    """A point of the extended real line.

    The payload is a float that may be ``+-inf``; NaN is rejected at
    construction so every downstream comparison is total.  Ordering is
    the usual one: ``-inf < finite < +inf``.
    """

    v: float

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        if math.isnan(self.v):
            raise ValueError("NaN is not a point of the extended real line")

    @property
    def is_pos_inf(self) -> bool:
        return self.v == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return self.v == -math.inf

    def __float__(self) -> float:
        return self.v

    def __str__(self) -> str:
        if self.is_pos_inf:
            return "+inf"
        if self.is_neg_inf:
            return "-inf"
        return format(self.v, ".12g")

    def __repr__(self) -> str:
        return f"ExtReal({self})"


NEG_INF = ExtReal(-math.inf)
POS_INF = ExtReal(math.inf)


def as_extreal(x: Union[ExtReal, Real]) -> ExtReal:
    """Coerce a number to :class:`ExtReal` (idempotent on ExtReal)."""
    return x if isinstance(x, ExtReal) else ExtReal(x)


def close(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Elementwise absolute-tolerance equality of float arrays: equal,
    or both finite and at most ``tol`` apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        near = np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= tol)
    return (a == b) | near


def to_json(a: ExtReal):
    """JSON encoding: finite values as numbers, infinities as strings."""
    if a.is_pos_inf:
        return "+inf"
    if a.is_neg_inf:
        return "-inf"
    return a.v


def from_json(obj) -> ExtReal:
    """Inverse of :func:`to_json`.  Accepts ints, floats and the two
    infinity strings (``"inf"`` tolerated for ``"+inf"``)."""
    if isinstance(obj, str):
        if obj in ("+inf", "inf"):
            return POS_INF
        if obj == "-inf":
            return NEG_INF
        raise ValueError(f"not an extended real: {obj!r}")
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValueError(f"not an extended real: {obj!r}")
    return ExtReal(obj)
