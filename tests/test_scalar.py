import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_solve.errors import ValidationError
from galois_solve.extreal import DEFAULT_TOL
from galois_solve.scalar import (
    Affine,
    Off,
    SignedPower,
    TabulatedDecreasing,
    conn_from_dict,
    make_affine,
    signed_power_values,
    tabulated_values,
)

SQRT6 = math.sqrt(6.0)

#: 64 sorted abscissas for the adjunction check: both infinities and
#: finite values spanning several orders of magnitude about zero.
ADJUNCTION_GRID = tuple([-math.inf] + sorted((0.0, 1e11) + tuple(
    x for mag in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 4 / 3, 1.5,
                  2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 13.0, 20.0, 25.0, 40.0,
                  60.0, 1e2, 3e2, 1e3, 1e4, 1e5, 1e7, 1e9)
    for x in (-mag, mag))) + [math.inf])


def _near(a, b, tol):
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def adjunction_holds(conn, tol=DEFAULT_TOL):
    """The adjunction of a form and its adjoint on the check grid: for
    all s, t, t >= conn(s) iff s >= adjoint(t).

    Floating-point evaluation can flip either inequality when the pair
    sits within rounding distance of the boundary (where one side holds
    with equality), so disagreements are tolerated only there; anywhere
    else they refute the adjunction.
    """
    adjoint = conn.adjoint()
    fwd = [conn.eval_float(s) for s in ADJUNCTION_GRID]
    adj = [adjoint.eval_float(t) for t in ADJUNCTION_GRID]
    for i, s in enumerate(ADJUNCTION_GRID):
        for j, t in enumerate(ADJUNCTION_GRID):
            if (t >= fwd[i]) == (s >= adj[j]):
                continue
            if not (_near(t, fwd[i], tol) or _near(s, adj[j], tol)):
                return False
    return True

mag = st.floats(min_value=-50, max_value=50, allow_nan=False)
pos = st.floats(min_value=0.05, max_value=20, allow_nan=False)

form_strategy = st.one_of(
    st.builds(Affine, mag, pos),
    st.builds(SignedPower, mag, st.floats(min_value=0.25, max_value=4), mag),
    st.just(Off()),
    st.builds(
        lambda start, steps: TabulatedDecreasing(
            tuple(
                (start + i, -sum(steps[: i + 1]))
                for i in range(len(steps))
            )
        ),
        mag,
        st.lists(st.floats(min_value=0.1, max_value=5), min_size=2, max_size=6),
    ),
)


# -- evaluation fixtures from the worked 2x3 example


def test_affine_eval():
    h = Affine(4, 3)
    assert h.eval_float(-4 / 3) == 8.0
    assert h.eval_float(math.inf) == -math.inf
    assert h.eval_float(-math.inf) == math.inf


def test_signed_power_eval():
    h = SignedPower(0, 2)
    assert math.isclose(h.eval_float(-SQRT6), 6.0, abs_tol=1e-12)
    assert h.eval_float(math.inf) == -math.inf
    assert h.eval_float(0.0) == 0.0


def test_every_form_sends_top_to_bottom():
    forms = [Affine(1, 2), SignedPower(3, 0.5, 1), Off(),
             TabulatedDecreasing(((0, 1), (1, 0)))]
    for h in forms:
        assert h.eval_float(math.inf) == -math.inf


def test_adjoint_closed_forms():
    assert Affine(0, 1).adjoint().eval_float(8.0) == -8.0
    a = SignedPower(0, 2).adjoint().eval_float(6.0)
    assert math.isclose(a, -SQRT6, abs_tol=1e-12)
    b = Affine(4, 3).adjoint().eval_float(8.0)
    assert math.isclose(b, -4 / 3, abs_tol=1e-12)
    # the no-solution row: sgn flips for negative targets
    c = SignedPower(0, 2).adjoint().eval_float(-3.0)
    assert math.isclose(c, math.sqrt(3), abs_tol=1e-12)


def test_adjoint_of_off_is_off():
    # residuating the constant bottom map gives back the constant bottom
    assert isinstance(Off().adjoint(), Off)
    assert adjunction_holds(Off())


def test_make_affine_degenerates():
    assert isinstance(make_affine(-math.inf, 1), Off)
    with pytest.raises(ValidationError):
        make_affine(math.inf, 1)
    with pytest.raises(ValidationError):
        Affine(0, -1)


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        TabulatedDecreasing(((0, 1), (1, 1)))  # not strictly decreasing
    with pytest.raises(ValidationError):
        TabulatedDecreasing(((0, 1), (0, 0)))  # repeated abscissa
    with pytest.raises(ValidationError):
        TabulatedDecreasing(((0, 1),))


def test_tabulated_eval_and_adjoint():
    h = TabulatedDecreasing(((0.0, 2.0), (1.0, 0.0), (3.0, -1.0)))
    assert h.eval_float(0.5) == pytest.approx(1.0)
    assert h.eval_float(2.0) == pytest.approx(-0.5)
    assert h.eval_float(-1.0) == pytest.approx(4.0)  # end slope extends
    inv = h.adjoint()
    for s in (-2.0, 0.0, 0.7, 2.5, 9.0):
        assert inv.eval_float(h.eval_float(s)) == pytest.approx(s, abs=1e-12)


# -- property tests over the whole DSL


@settings(max_examples=150)
@given(form_strategy)
def test_adjunction_on_grid(conn):
    assert adjunction_holds(conn)


@settings(max_examples=150)
@given(form_strategy)
def test_involution(conn):
    back = conn.adjoint().adjoint()
    for s in ADJUNCTION_GRID:
        a = conn.eval_float(s)
        b = back.eval_float(s)
        if math.isinf(a) or math.isinf(b):
            assert a == b
        else:
            assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)


@settings(max_examples=150)
@given(form_strategy)
def test_nonincreasing(conn):
    vals = [conn.eval_float(s) for s in ADJUNCTION_GRID]
    assert all(u >= v for u, v in zip(vals, vals[1:]))


@settings(max_examples=100)
@given(form_strategy)
def test_bijective_round_trip(conn):
    if isinstance(conn, Off):
        return
    inv = conn.adjoint()
    # probe away from the power form's centre: the round trip through
    # |d|**p is ill-conditioned where the difference underflows
    centre = conn.shift if isinstance(conn, SignedPower) else 0.0
    for d in (-7.3, -1.0, 0.4, 2.0, 11.0):
        s = centre + d
        t = conn.eval_float(s)
        if math.isinf(t):
            continue
        scale = max(1.0, abs(s), abs(t), abs(getattr(conn, "c", 0.0)))
        assert math.isclose(inv.eval_float(t), s, rel_tol=1e-9,
                            abs_tol=1e-9 * scale)
        u = inv.eval_float(t)
        assert math.isclose(conn.eval_float(u), t, rel_tol=1e-9,
                            abs_tol=1e-9 * scale)


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        conn_from_dict({"type": "mystery"})
    with pytest.raises(ValidationError):
        conn_from_dict({"type": "affine", "c": 1})
    with pytest.raises(ValidationError):
        conn_from_dict("affine")


# -- the array evaluators, bit for bit against the forms


def test_array_evaluators_match_forms_at_their_corners():
    rng = np.random.default_rng(11)
    forms, lams = [], []
    for _ in range(400):
        n = int(rng.integers(2, 7))
        s = np.cumsum(rng.uniform(0.05, 3.0, n)) + rng.normal()
        t = -np.cumsum(rng.uniform(0.05, 3.0, n)) + rng.normal()
        form = TabulatedDecreasing(tuple(zip(s.tolist(), t.tolist())))
        for lam in s.tolist() + [float(np.nextafter(v, math.inf)) for v in s]:
            forms.append(form)
            lams.append(lam)
    wide = TabulatedDecreasing(((-1e308, 1.0), (1e308, 0.0)))
    forms += [wide, wide]
    lams += [math.inf, -math.inf]
    width = max(len(f.points) for f in forms)
    pad = [(math.inf, math.inf)] * width
    pts = np.array([list(f.points) + pad[len(f.points):] for f in forms])
    with np.errstate(over="ignore", invalid="ignore"):
        got = tabulated_values(np.array(lams), pts[..., 0], pts[..., 1],
                               np.array([len(f.points) for f in forms]))
    want = [f.eval_float(lam) for f, lam in zip(forms, lams)]
    assert got.tobytes() == np.array(want).tobytes()

    powers = [SignedPower(-0.0, 2.0, 0.0), SignedPower(1.5, 0.7, -0.25),
              SignedPower(-2.0, 3.0, 1.0), SignedPower(-2.0, 3.0, 1.0),
              SignedPower(0.0, 4.0, 0.0), SignedPower(1.0, 4.0, 0.0)]
    powers += [SignedPower(c, p, sh) for c, p, sh in zip(
        rng.normal(size=300), rng.uniform(0.25, 4, 300), rng.normal(size=300))]
    lams = [-0.0, -0.25, math.inf, -math.inf, 1e100, -1e100] + rng.normal(0, 3, 300).tolist()
    got = signed_power_values(
        np.array(lams), *(np.array([getattr(f, k) for f in powers]) for k in ("c", "p", "shift")))
    want = [f.eval_float(lam) for f, lam in zip(powers, lams)]
    assert got.tobytes() == np.array(want).tobytes()
    # a power past the float range is infinite, as numpy's scalars give it
    assert want[4:6] == [-math.inf, math.inf]
    with np.errstate(over="ignore"):
        assert want[4] == 0.0 - np.float64(1e100) ** 4.0


def test_array_evaluators_match_forms_at_scale():
    """About 10^5 seeded draws of each evaluator, bit for bit against the
    forms.  Powers: bases 0, subnormal, 1, +inf and |N(0,1)| scaled from
    1e-300 to 1e100 at exponents from 1e-3 to 1e3, past the float range
    both ways, and d = +-0.0 with c = -0.0; a power not rounded as C's
    ``pow`` rounds it fails here.  Tables: rows of fewer breakpoints
    than the padded width, at each breakpoint, one ulp either side of
    it, far outside and at both infinities."""
    rng = np.random.default_rng(30)
    n = 100_000
    d = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-300, 100, n)
    d[:6] = [0.0, 5e-324, 1e-310, 2.2e-308, 1.0, math.inf]
    d *= rng.choice([-1.0, 1.0], n)
    d[6:8] = [0.0, -0.0]
    c = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 100, n)
    c[:8] = -0.0
    p = 10.0 ** rng.uniform(-3, 3, n)
    p[8:12] = [1e-3, 1e3, 1e3, 0.5]
    d[8:12] = [1e100, 1e100, 1e-300, 5e-324]
    shift = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
    shift[:12] = 0.0
    lam = d + shift
    got = signed_power_values(lam, c, p, shift)
    want = [SignedPower(*f).eval_float(x) for *f, x in zip(
        c.tolist(), p.tolist(), shift.tolist(), lam.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    assert got[6:8].tobytes() == np.array([-0.0, -0.0]).tobytes()
    assert np.isneginf(got[9]) and got[10] == c[10]  # over- and underflow

    forms, at, lams = [], [], []
    for k in range(2500):
        size = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-3, 3)
        s = (np.cumsum(rng.uniform(0.05, 3.0, size)) + rng.normal()) * scale
        t = (rng.normal() - np.cumsum(rng.uniform(0.05, 3.0, size))) * scale
        forms.append(TabulatedDecreasing(tuple(zip(s.tolist(), t.tolist()))))
        near = np.nextafter(s, rng.choice([-math.inf, math.inf], size))
        far = rng.normal(size=30) * 10.0 ** rng.uniform(-3, 100, 30)
        draws = [*s.tolist(), *near.tolist(), *far.tolist(), math.inf, -math.inf]
        at += [k] * len(draws)
        lams += draws
    width = 8
    pad = ((math.inf, math.inf),) * width
    pts = np.array([f.points + pad[len(f.points):] for f in forms])[at]
    lam = np.array(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        got = tabulated_values(lam, pts[..., 0], pts[..., 1],
                               np.array([len(forms[k].points) for k in at]))
    want = [forms[k].eval_float(x) for k, x in zip(at, lams)]
    assert got.tobytes() == np.array(want).tobytes()
