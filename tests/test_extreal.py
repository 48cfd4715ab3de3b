import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_solve import extreal
from galois_solve.errors import ValidationError
from galois_solve.extreal import INFINITIES, NEG_INF, POS_INF, ExtReal

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
anyext = st.one_of(finite.map(ExtReal), st.sampled_from([NEG_INF, POS_INF]))


def test_construction_rejects_nan():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))


def test_total_order():
    assert NEG_INF < ExtReal(-1e300) < ExtReal(0) < ExtReal(1e300) < POS_INF


@given(anyext)
def test_json_round_trip(a):
    assert extreal.parse(extreal.to_json(a), "value", INFINITIES) == a.v


def test_json_encoding():
    assert extreal.to_json(POS_INF) == "+inf"
    assert extreal.to_json(NEG_INF) == "-inf"
    assert extreal.to_json(ExtReal(1.5)) == 1.5
    with pytest.raises(ValueError):
        extreal.parse("wide", "value", INFINITIES)
    with pytest.raises(ValueError):
        extreal.parse(None, "value", INFINITIES)


def test_json_array_form_matches_the_scalar_rule():
    vals = np.array([-math.inf, -0.0, 0.0, 1.5, -1e300, math.inf, 5e-324])
    got = extreal.to_json(vals)
    assert got == [extreal.to_json(v) for v in vals]
    assert [type(v) for v in got] == [str, float, float, float, float, str, float]
    assert math.copysign(1.0, got[1]) == -1.0
    assert extreal.to_json(np.empty(0)) == []


def test_fmt_is_the_text_of_an_extreal():
    for v in (-math.inf, -0.0, 0.0, 1 / 3, 1e-300, 123456789012345.0, math.inf):
        assert extreal.fmt(v) == str(ExtReal(v))
    assert (extreal.fmt(math.inf), extreal.fmt(-math.inf)) == ("+inf", "-inf")
    assert extreal.fmt(1 / 3) == "0.333333333333"


ACCEPTED = [(0, 0.0), (-7, -7.0), (1.5, 1.5), (-0.0, -0.0), (math.inf, math.inf),
            (-math.inf, -math.inf), (np.float64(2.5), 2.5), (np.int64(-3), -3.0),
            (np.float32(0.5), 0.5), (ExtReal(4.0), 4.0), (NEG_INF, -math.inf),
            (10**308, 1e308)]
REFUSED = [math.nan, np.float64(math.nan), None, True, False, np.bool_(True),
           "1.5", "nan", "abc", "", "Infinity", [1.0], {"v": 1.0}, (1.0,),
           10**400, -10**400]


@pytest.mark.parametrize("infinities", [(), ("-inf",), tuple(INFINITIES)])
def test_parse_is_one_rule(infinities):
    for obj, want in ACCEPTED:
        got = extreal.parse(obj, "field", infinities)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    for obj in REFUSED:
        with pytest.raises(ValidationError, match="^field is not a number"):
            extreal.parse(obj, "field", infinities)
    for text, want in INFINITIES.items():
        if text in infinities:
            assert extreal.parse(text, "field", infinities) == want
        else:
            with pytest.raises(ValidationError):
                extreal.parse(text, "field", infinities)


def test_close_is_the_absolute_rule():
    # equal, or both finite and at most tol apart: infinities only match
    # themselves, whatever the tolerance
    vals = [-math.inf, -1e300, -1.0, 0.0, 1e-10, 1.0, 1.5, math.inf]
    for tol in (0.0, 1e-9, 0.5, math.inf):
        for a, b in product(vals, vals):
            want = a == b or (math.isfinite(a) and math.isfinite(b)
                              and abs(a - b) <= tol)
            assert bool(extreal.close(a, b, tol)) == want, (a, b, tol)
