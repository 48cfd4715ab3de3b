"""Points of the extended real line R u {-inf, +inf}.

:class:`ExtReal` is one point, ordered as usual; arrays of them are
plain float arrays, compared up to a tolerance by :func:`close`.

The edge of the program reads and writes them here alone: :func:`parse`
is the one rule for a value in a problem or function file (the moreau
``bbar`` entries keep their own), :func:`to_json` writes floats and
float arrays to JSON, with the infinities as the strings "-inf" and
"+inf", and :func:`fmt` writes one as text.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Collection

import numpy as np

from .errors import ValidationError

#: Default absolute tolerance for comparing finite values.  Argmax sets
#: (subdifferentials) must be stable under floating-point noise.
DEFAULT_TOL = 1e-9

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

    def __float__(self) -> float:
        return self.v

    def __str__(self) -> str:
        return fmt(self.v)

    def __repr__(self) -> str:
        return f"ExtReal({self})"


NEG_INF = ExtReal(-math.inf)
POS_INF = ExtReal(math.inf)


def as_extreal(x) -> ExtReal:
    """Coerce a number to :class:`ExtReal` (idempotent on ExtReal)."""
    return x if isinstance(x, ExtReal) else ExtReal(x)


def close(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Elementwise absolute-tolerance equality of float arrays: equal,
    or both finite and at most ``tol`` apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        near = np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= tol)
    return (a == b) | near


#: The infinity strings a value of the extended real line may take.
INFINITIES = {"+inf": math.inf, "inf": math.inf, "-inf": -math.inf}


def parse(obj, what: str, infinities: Collection[str] = ()) -> float:
    """The extended real a JSON value stands for, as a float: a real
    number that is not a bool (numpy's, JSON's Infinity and an
    :class:`ExtReal` included), or one of the strings ``infinities``.
    Anything else (NaN, other strings, null, containers, bools, integers
    too large for a float) is a ValidationError naming ``what``."""
    if type(obj) is float and obj == obj:  # most values, at one test
        return obj
    if isinstance(obj, str):
        if obj in infinities:
            return INFINITIES[obj]
    elif isinstance(obj, (numbers.Real, ExtReal)) and not isinstance(obj, bool):
        try:
            v = float(obj)
        except OverflowError:
            v = math.nan
        if v == v:
            return v
    accepted = "".join(f" or {s!r}" for s in infinities)
    raise ValidationError(f"{what} is not a number{accepted}: {obj!r}")


def to_json(v):
    """JSON form of a float, or of a 1-D float array as a list: finite
    values as numbers, infinities as the strings "+inf" and "-inf"."""
    if isinstance(v, np.ndarray):
        out = v.tolist()
        for k in np.flatnonzero(np.isinf(v)).tolist():
            out[k] = fmt(out[k])
        return out
    v = float(v)
    return fmt(v) if math.isinf(v) else v


def fmt(v: float) -> str:
    """Text form of a float: "+inf", "-inf" or 12 significant digits."""
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return format(v, ".12g")
