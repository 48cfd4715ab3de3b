import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_solve import extreal
from galois_solve.extreal import (
    NEG_INF,
    POS_INF,
    ExtReal,
    add_hi,
    add_lo,
    approx_eq,
    inf,
    sup,
)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
anyext = st.one_of(finite.map(ExtReal), st.sampled_from([NEG_INF, POS_INF]))


def test_construction_rejects_nan():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))


def test_total_order():
    assert NEG_INF < ExtReal(-1e300) < ExtReal(0) < ExtReal(1e300) < POS_INF


def test_add_lo_basics():
    assert add_lo(ExtReal(3), ExtReal(4)) == ExtReal(7)
    # the low convention absorbs at -inf, even against +inf
    assert add_lo(NEG_INF, POS_INF) == NEG_INF
    assert add_lo(POS_INF, ExtReal(-2)) == POS_INF


def test_add_hi_basics():
    assert add_hi(NEG_INF, POS_INF) == POS_INF
    assert add_hi(ExtReal(1), ExtReal(-1)) == ExtReal(0)
    assert add_hi(NEG_INF, NEG_INF) == NEG_INF


def test_sup_inf_units():
    assert sup([]) == NEG_INF
    assert inf([]) == POS_INF
    assert sup([ExtReal(2), POS_INF]) == POS_INF
    assert inf([ExtReal(-1), NEG_INF]) == NEG_INF


def test_approx_eq():
    assert approx_eq(ExtReal(1.0), ExtReal(1.0 + 1e-13), 1e-9)
    assert approx_eq(POS_INF, POS_INF, 0.0)
    assert not approx_eq(NEG_INF, ExtReal(-1e300), 1e-9)
    assert not approx_eq(ExtReal(0), ExtReal(1), 0.5)
    with pytest.raises(ValueError):
        approx_eq(ExtReal(0), ExtReal(0), -1.0)


@given(finite, finite)
def test_commutativity_random_payloads(a, b):
    for tag_a, tag_b in product(
        [ExtReal(a), NEG_INF, POS_INF], [ExtReal(b), NEG_INF, POS_INF]
    ):
        assert add_lo(tag_a, tag_b) == add_lo(tag_b, tag_a)
        assert add_hi(tag_a, tag_b) == add_hi(tag_b, tag_a)


@given(finite, finite, finite)
def test_associativity_exhaustive_tags(a, b, c):
    reps = lambda v: [ExtReal(v), NEG_INF, POS_INF]
    for x, y, z in product(reps(a), reps(b), reps(c)):
        for op in (add_lo, add_hi):
            left = op(op(x, y), z)
            right = op(x, op(y, z))
            assert approx_eq(left, right, 1e-6 * max(1, abs(a), abs(b), abs(c)))


@given(anyext, anyext)
def test_lo_below_hi(a, b):
    assert add_lo(a, b) <= add_hi(a, b)


@given(st.lists(anyext), st.lists(anyext))
def test_sup_monotone_and_union(xs, ys):
    assert sup(xs) <= sup(xs + ys)
    assert sup(xs + ys) == max(sup(xs), sup(ys))


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
