import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_solve.errors import ValidationError
from galois_solve.extreal import NEG_INF, POS_INF, ExtReal
from galois_solve.scalar import (
    Affine,
    DualPair,
    Off,
    SignedPower,
    TabulatedDecreasing,
    adjunction_grid,
    conn_from_dict,
    make_affine,
    signed_power_values,
    tabulated_values,
)

SQRT6 = math.sqrt(6.0)

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
    assert h.eval(ExtReal(-4 / 3)) == ExtReal(8.0)
    assert h.eval(POS_INF) == NEG_INF
    assert h.eval(NEG_INF) == POS_INF


def test_signed_power_eval():
    h = SignedPower(0, 2)
    assert math.isclose(float(h.eval(ExtReal(-SQRT6))), 6.0, abs_tol=1e-12)
    assert h.eval(POS_INF) == NEG_INF
    assert h.eval(ExtReal(0)) == ExtReal(0)


def test_every_form_sends_top_to_bottom():
    forms = [Affine(1, 2), SignedPower(3, 0.5, 1), Off(),
             TabulatedDecreasing(((0, 1), (1, 0)))]
    for h in forms:
        assert h.eval(POS_INF) == NEG_INF


def test_adjoint_closed_forms():
    assert Affine(0, 1).adjoint().eval(ExtReal(8)) == ExtReal(-8)
    a = SignedPower(0, 2).adjoint().eval(ExtReal(6))
    assert math.isclose(float(a), -SQRT6, abs_tol=1e-12)
    b = Affine(4, 3).adjoint().eval(ExtReal(8))
    assert math.isclose(float(b), -4 / 3, abs_tol=1e-12)
    # the no-solution row: sgn flips for negative targets
    c = SignedPower(0, 2).adjoint().eval(ExtReal(-3))
    assert math.isclose(float(c), math.sqrt(3), abs_tol=1e-12)


def test_adjoint_of_off_is_off():
    # residuating the constant bottom map gives back the constant bottom
    assert isinstance(Off().adjoint(), Off)
    assert DualPair.of(Off()).adjunction_holds()


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
    assert float(h.eval(ExtReal(0.5))) == pytest.approx(1.0)
    assert float(h.eval(ExtReal(2.0))) == pytest.approx(-0.5)
    assert float(h.eval(ExtReal(-1.0))) == pytest.approx(4.0)  # end slope extends
    inv = h.adjoint()
    for s in (-2.0, 0.0, 0.7, 2.5, 9.0):
        assert float(inv.eval(h.eval(ExtReal(s)))) == pytest.approx(s, abs=1e-12)


# -- property tests over the whole DSL


@settings(max_examples=150)
@given(form_strategy)
def test_adjunction_on_grid(conn):
    assert DualPair.of(conn).adjunction_holds()


@settings(max_examples=150)
@given(form_strategy)
def test_involution(conn):
    back = conn.adjoint().adjoint()
    for s in adjunction_grid():
        a = conn.eval_float(s)
        b = back.eval_float(s)
        if math.isinf(a) or math.isinf(b):
            assert a == b
        else:
            assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)


@settings(max_examples=150)
@given(form_strategy)
def test_nonincreasing(conn):
    vals = [conn.eval_float(s) for s in adjunction_grid()]
    assert all(u >= v for u, v in zip(vals, vals[1:]))


@settings(max_examples=100)
@given(form_strategy)
def test_bijective_round_trip(conn):
    if not conn.bijective:
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


@settings(max_examples=100)
@given(form_strategy)
def test_json_round_trip(conn):
    again = conn_from_dict(conn.to_dict())
    for s in adjunction_grid():
        assert conn.eval_float(s) == again.eval_float(s)


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
