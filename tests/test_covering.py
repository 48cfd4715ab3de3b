import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_solve.covering import (
    CoverFamily,
    CoverReport,
    check_cover,
    irredundant_subcover,
    smallest_subcover,
)
from galois_solve.errors import LimitExceeded, NotACoverError

DEMO = CoverFamily.build(
    ["x1", "x2"],
    {"y1": {"x2"}, "y2": {"x1"}, "y3": {"x1", "x2"}},
    ["y1", "y2", "y3"],
)


def test_demo_family_covers_but_not_minimal():
    rep = check_cover(DEMO)
    assert rep.is_cover
    assert rep.uncovered == ()
    assert rep.essential == ()
    assert not rep.is_minimal


def test_restricted_family_is_minimal():
    fam = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}, "y2": {"x1"}})
    rep = check_cover(fam)
    assert rep.is_minimal
    assert rep.privately_covered == {"y1": "x2", "y2": "x1"}


def test_non_cover():
    fam = CoverFamily.build(
        ["x1", "x2"], {y: {"x2"} for y in ("y1", "y2", "y3")}
    )
    rep = check_cover(fam)
    assert not rep.is_cover
    assert rep.uncovered == ("x1",)
    assert not rep.is_minimal


def test_irredundant_demo_order():
    assert irredundant_subcover(DEMO) == ("y3",)


def test_irredundant_keeps_minimal_family():
    fam = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}, "y2": {"x1"}})
    assert irredundant_subcover(fam) == ("y1", "y2")


def test_irredundant_duplicate_sets_first_removed():
    fam = CoverFamily.build(["1"], {"a": {"1"}, "b": {"1"}}, ["a", "b"])
    assert irredundant_subcover(fam) == ("b",)


def test_irredundant_requires_cover():
    fam = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}})
    with pytest.raises(NotACoverError):
        irredundant_subcover(fam)


def test_smallest_demo():
    assert smallest_subcover(DEMO) == ("y3",)


def test_smallest_disjoint_singletons():
    fam = CoverFamily.build(
        ["a", "b", "c"], {f"y{i}": {p} for i, p in enumerate("abc")}
    )
    assert set(smallest_subcover(fam)) == {"y0", "y1", "y2"}


def test_smallest_empty_universe():
    fam = CoverFamily.build([], {"y1": {"x"}})
    assert smallest_subcover(fam) == ()


def test_smallest_limit():
    fam = CoverFamily.build(["p"], {f"y{i}": {"p"} for i in range(25)})
    with pytest.raises(LimitExceeded):
        smallest_subcover(fam)
    assert smallest_subcover(fam, limit=25) == ("y0",)


families = st.integers(1, 5).flatmap(
    lambda n: st.fixed_dictionaries({}).flatmap(
        lambda _: st.lists(
            st.sets(st.integers(0, n - 1)), min_size=1, max_size=6
        ).map(
            lambda sets: CoverFamily.build(
                [str(i) for i in range(n)],
                {f"z{k}": {str(v) for v in s} for k, s in enumerate(sets)},
            )
        )
    )
)


@settings(max_examples=200)
@given(families)
def test_cover_report_consistency(fam):
    rep = check_cover(fam)
    union = frozenset().union(*fam.sets.values())
    assert rep.is_cover == (union >= set(fam.universe))
    assert set(rep.uncovered) == set(fam.universe) - union
    # every essential index privately covers its witness
    for z in rep.essential:
        w = rep.privately_covered[z]
        assert w in fam.sets[z]
        assert all(w not in fam.sets[o] for o in fam.index_pool if o != z)
    if rep.is_minimal:
        # a minimal covering of n points has at most n sets: witnesses
        # are distinct points, one per index
        assert len(fam.index_pool) <= len(fam.universe)


@settings(max_examples=200)
@given(families)
def test_subcover_chain(fam):
    if not check_cover(fam).is_cover:
        return
    irr = irredundant_subcover(fam)
    small = smallest_subcover(fam)
    assert len(small) <= len(irr) <= len(fam.index_pool)
    # irredundant means: within the subfamily every index is essential
    sub = CoverFamily.build(fam.universe, {z: fam.sets[z] for z in irr}, irr)
    rep = check_cover(sub)
    assert rep.is_cover and rep.is_minimal
    assert fam.covers(small)


# -- the label-set implementation the index-array one replaced, kept as
#    its oracle


def _oracle_check_cover(universe, sets, pool):
    counts = {w: 0 for w in universe}
    for z in pool:
        for w in sets[z]:
            counts[w] += 1
    uncovered = tuple(w for w in universe if counts[w] == 0)
    pos = {w: k for k, w in enumerate(universe)}
    essential, witnesses = [], {}
    for z in pool:
        private = [w for w in sets[z] if counts[w] == 1]
        if private:
            essential.append(z)
            witnesses[z] = min(private, key=pos.__getitem__)
    is_cover = not uncovered
    return CoverReport(is_cover, uncovered, tuple(essential), witnesses,
                       is_cover and len(essential) == len(pool))


def _oracle_irredundant(universe, sets, pool):
    counts = {w: 0 for w in universe}
    for z in pool:
        for w in sets[z]:
            counts[w] += 1
    result = []
    for z in pool:
        if all(counts[w] > 1 for w in sets[z]):
            for w in sets[z]:
                counts[w] -= 1
        else:
            result.append(z)
    return tuple(result)


# points "p0".."p5" with a universe of some of them (so that sets reach
# outside it), up to 7 sets that may be empty or repeat one another, and
# a pool that lists the indices in an order of its own
labelled_families = st.tuples(
    st.lists(st.integers(0, 5), max_size=6, unique=True),
    st.lists(st.frozensets(st.integers(0, 5)), min_size=1, max_size=7),
    st.randoms(use_true_random=False),
)


@settings(max_examples=200)
@given(labelled_families)
def test_index_arrays_match_label_set_oracle(data):
    points, raw_sets, rnd = data
    universe = tuple(f"p{k}" for k in points)
    raw_sets = raw_sets + raw_sets[:1]  # always one duplicate set
    sets = {f"z{k}": {f"p{v}" for v in s} for k, s in enumerate(raw_sets)}
    pool = list(sets)
    rnd.shuffle(pool)
    fam = CoverFamily.build(universe, sets, pool)
    clipped = {z: frozenset(sets[z]) & set(universe) for z in pool}
    assert fam.sets == clipped
    assert check_cover(fam) == _oracle_check_cover(universe, clipped, pool)
    if _oracle_check_cover(universe, clipped, pool).is_cover:
        assert irredundant_subcover(fam) == _oracle_irredundant(
            universe, clipped, pool)
    else:
        with pytest.raises(NotACoverError):
            irredundant_subcover(fam)
