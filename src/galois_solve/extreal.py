"""Arithmetic and ordering on the extended real line.

Two addition conventions coexist on R u {-inf, +inf}: one where -inf
absorbs (used on the forward side of a max-plus style pairing) and the
dual one where +inf absorbs.  Both are total, commutative and
associative; they differ only on the indeterminate sum of opposite
infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

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
    def is_finite(self) -> bool:
        return math.isfinite(self.v)

    @property
    def is_pos_inf(self) -> bool:
        return self.v == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return self.v == -math.inf

    def __float__(self) -> float:
        return self.v

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self.v)

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
ZERO = ExtReal(0.0)


def as_extreal(x: Union[ExtReal, Real]) -> ExtReal:
    """Coerce a number to :class:`ExtReal` (idempotent on ExtReal)."""
    return x if isinstance(x, ExtReal) else ExtReal(x)


def add_lo(a: ExtReal, b: ExtReal) -> ExtReal:
    """Addition with ``-inf`` absorbing: ``-inf + x = x + -inf = -inf``."""
    av, bv = a.v, b.v
    if av == -math.inf or bv == -math.inf:
        return NEG_INF
    return ExtReal(av + bv)  # +inf + finite and +inf + +inf are safe


def add_hi(a: ExtReal, b: ExtReal) -> ExtReal:
    """Addition with ``+inf`` absorbing, the mirror of :func:`add_lo`."""
    av, bv = a.v, b.v
    if av == math.inf or bv == math.inf:
        return POS_INF
    return ExtReal(av + bv)


def sup(values: Iterable[ExtReal]) -> ExtReal:
    """Supremum; the empty supremum is the lattice bottom ``-inf``."""
    best = -math.inf
    for x in values:
        if x.v > best:
            best = x.v
    return ExtReal(best)


def inf(values: Iterable[ExtReal]) -> ExtReal:
    """Infimum; the empty infimum is the lattice top ``+inf``."""
    best = math.inf
    for x in values:
        if x.v < best:
            best = x.v
    return ExtReal(best)


def approx_eq(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """Equality up to ``tol`` on finite values; infinite tags compare exactly."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    av, bv = a.v, b.v
    if av == bv:  # covers equal infinities and exact finite hits
        return True
    if math.isinf(av) or math.isinf(bv):
        return False
    return abs(av - bv) <= tol


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
