"""Scalar slices of a functional Galois connection.

Every slice is a nonincreasing, right-continuous map h on the extended
reals with h(+inf) = -inf.  On the support set the slices are moreover
decreasing bijections of the extended real line, so each has an exact
functional inverse (its adjoint under residuation).

The forms are a closed DSL rather than arbitrary callables: that keeps
adjoints exact and every form readable from a problem file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .extreal import parse


class ScalarConnection:
    """Base class for the scalar forms.  Immutable after construction."""

    def eval_float(self, lam: float) -> float:
        raise NotImplementedError

    def adjoint(self) -> "ScalarConnection":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Off(ScalarConnection):
    """The constant -inf map: the slice of an unsupported pair.

    Its residual min{s : t >= -inf} is again the constant -inf map,
    so Off is self-adjoint.  Support membership is tracked at the
    kernel level and never inferred from the map itself.
    """

    def eval_float(self, lam: float) -> float:
        return -math.inf

    def adjoint(self) -> "Off":
        return self


@dataclass(frozen=True, slots=True)
class Affine(ScalarConnection):
    """h(lam) = c - m*lam with m > 0 and finite c.

    At the infinities: h(+inf) = -inf and h(-inf) = +inf, so h is a
    decreasing bijection of the extended reals.
    """

    c: float
    m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "m", float(self.m))
        if not math.isfinite(self.c):
            raise ValidationError(
                "affine offset must be finite (use make_affine for -inf offsets)"
            )
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValidationError("affine slope must be finite and positive")

    def eval_float(self, lam: float) -> float:
        if lam == math.inf:
            return -math.inf
        if lam == -math.inf:
            return math.inf
        return self.c - self.m * lam

    def adjoint(self) -> "Affine":
        return Affine(self.c / self.m, 1.0 / self.m)


@dataclass(frozen=True, slots=True)
class SignedPower(ScalarConnection):
    """h(lam) = c - sgn(lam - shift)*|lam - shift|**p with p > 0.

    The shift field closes the family under adjunction: the inverse of
    the map above is t -> shift + sgn(c - t)*|c - t|**(1/p), again of
    the same shape with the roles of c and shift exchanged.
    """

    c: float
    p: float
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "shift", float(self.shift))
        if not math.isfinite(self.c) or not math.isfinite(self.shift):
            raise ValidationError("signed-power offsets must be finite")
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValidationError("signed-power exponent must be finite and positive")

    def eval_float(self, lam: float) -> float:
        if lam == math.inf:
            return -math.inf
        if lam == -math.inf:
            return math.inf
        d = lam - self.shift
        if d == 0.0:
            return self.c
        return self.c - math.copysign(_power(abs(d), self.p), d)

    def adjoint(self) -> "SignedPower":
        return SignedPower(self.shift, 1.0 / self.p, self.c)


@dataclass(frozen=True, slots=True)
class TabulatedDecreasing(ScalarConnection):
    """Piecewise-linear strictly decreasing map through given breakpoints.

    Breakpoints [(s0,t0), ..., (sn,tn)] must have strictly increasing s
    and strictly decreasing t; beyond the ends the end segments extend
    with their own slopes, so the map is a decreasing bijection of the
    reals (hence of the extended reals with the usual limits).  Strict
    monotonicity is required: a flat or repeated abscissa would break
    the bijection requirement, so it is rejected at construction.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(s), float(t)) for s, t in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValidationError("tabulated form needs at least two breakpoints")
        for s, t in pts:
            if not (math.isfinite(s) and math.isfinite(t)):
                raise ValidationError("tabulated breakpoints must be finite")
        for (s0, t0), (s1, t1) in zip(pts, pts[1:]):
            if not (s1 > s0 and t1 < t0):
                raise ValidationError(
                    "tabulated breakpoints must be strictly decreasing "
                    f"(violated between ({s0},{t0}) and ({s1},{t1}))"
                )

    def eval_float(self, lam: float) -> float:
        if lam == math.inf:
            return -math.inf
        if lam == -math.inf:
            return math.inf
        pts = self.points
        if lam <= pts[0][0]:
            (s0, t0), (s1, t1) = pts[0], pts[1]
        elif lam >= pts[-1][0]:
            (s0, t0), (s1, t1) = pts[-2], pts[-1]
        else:
            lo, hi = 0, len(pts) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if pts[mid][0] <= lam:
                    lo = mid
                else:
                    hi = mid
            (s0, t0), (s1, t1) = pts[lo], pts[hi]
        return t0 + (lam - s0) * (t1 - t0) / (s1 - s0)

    def adjoint(self) -> "TabulatedDecreasing":
        return TabulatedDecreasing(tuple((t, s) for s, t in reversed(self.points)))


def _power(x: float, p: float) -> float:
    """x ** p, with +inf where the power overflows, as C's pow and
    numpy's float64 scalars give it (Python's ``**`` raises)."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def signed_power_values(lam: np.ndarray, c: np.ndarray, p: np.ndarray,
                        shift: np.ndarray) -> np.ndarray:
    """:meth:`SignedPower.eval_float` of the k-th form at ``lam[k]``, bit for
    bit: each power by ``float_power``, which calls C's ``pow`` as ``**``
    does (numpy's ``power`` can round differently), +inf past the range."""
    d = lam - shift
    with np.errstate(over="ignore"):
        mag = np.float_power(np.abs(d), p)
    # an infinite lam needs no case of its own: d and the power are
    # infinite too; a zero d keeps c, even when c is -0.0 and d is -0.0
    return np.where(d == 0.0, c, c - np.copysign(mag, d))


def tabulated_values(lam: np.ndarray, s: np.ndarray, t: np.ndarray,
                     n: np.ndarray) -> np.ndarray:
    """:meth:`TabulatedDecreasing.eval_float` of the k-th form at
    ``lam[k]``, bit for bit.  Row k of ``s`` and ``t`` holds the form's
    ``n[k]`` breakpoints, padded with +inf.  The segment is the one the
    bisection picks: the last breakpoint at or below ``lam``, kept
    inside the table so the end segments extend."""
    seg = np.clip(np.count_nonzero(s <= lam[:, None], axis=1) - 1, 0, n - 2)
    seg += np.arange(0, s.size, s.shape[1])  # flat positions, row by row
    s0, s1 = s.take(seg), s.take(seg + 1)
    t0, t1 = t.take(seg), t.take(seg + 1)
    out = t0 + (lam - s0) * (t1 - t0) / (s1 - s0)
    # an infinite lam over a segment wider than the float range would
    # give inf/inf; the form sends it to the opposite infinity
    return np.where(np.isinf(lam), -lam, out)


def make_affine(c, m: float = 1.0) -> ScalarConnection:
    """Affine form, degenerating to :class:`Off` when the offset is -inf."""
    cv = parse(c, "affine offset", ("-inf",))
    if cv == -math.inf:
        return Off()
    if cv == math.inf:
        raise ValidationError("kernel entries may not take the value +inf")
    return Affine(cv, m)


def conn_from_dict(d: dict) -> ScalarConnection:
    if not isinstance(d, dict) or "type" not in d:
        raise ValidationError(f"not a scalar form: {d!r}")
    kind = d["type"]
    try:
        if kind == "off":
            return Off()
        if kind == "affine":
            return make_affine(d["c"], parse(d["m"], "affine slope"))
        if kind == "signed_power":
            return SignedPower(parse(d["c"], "signed-power c"),
                               parse(d["p"], "signed-power p"),
                               parse(d.get("shift", 0.0), "signed-power shift"))
        if kind == "table":
            pts = d["points"]
            try:
                pairs = tuple((parse(s, "breakpoint"), parse(t, "breakpoint"))
                              for s, t in pts)
            except ValidationError:
                raise
            except (TypeError, ValueError):
                raise ValidationError(
                    f"tabulated points must be pairs of numbers: {pts!r}") from None
            return TabulatedDecreasing(pairs)
    except KeyError as exc:
        raise ValidationError(f"scalar form {kind!r} missing field {exc}") from exc
    raise ValidationError(f"unknown scalar form type: {kind!r}")
