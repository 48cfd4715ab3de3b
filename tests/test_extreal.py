import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_solve import extreal
from galois_solve.extreal import NEG_INF, POS_INF, ExtReal

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
    assert extreal.from_json(extreal.to_json(a)) == a


def test_json_encoding():
    assert extreal.to_json(POS_INF) == "+inf"
    assert extreal.to_json(NEG_INF) == "-inf"
    assert extreal.to_json(ExtReal(1.5)) == 1.5
    with pytest.raises(ValueError):
        extreal.from_json("wide")
    with pytest.raises(ValueError):
        extreal.from_json(None)


def test_close_is_the_absolute_rule():
    # equal, or both finite and at most tol apart: infinities only match
    # themselves, whatever the tolerance
    vals = [-math.inf, -1e300, -1.0, 0.0, 1e-10, 1.0, 1.5, math.inf]
    for tol in (0.0, 1e-9, 0.5, math.inf):
        for a, b in product(vals, vals):
            want = a == b or (math.isfinite(a) and math.isfinite(b)
                              and abs(a - b) <= tol)
            assert bool(extreal.close(a, b, tol)) == want, (a, b, tol)
