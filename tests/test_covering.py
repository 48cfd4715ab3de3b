import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_solve.covering import (
    CoverFamily,
    CoverReport,
    check_cover,
    irredundant_subcover,
)
from galois_solve.errors import NotACoverError

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


def subcover(fam):
    """The irredundant subcover of ``fam``, by label."""
    return tuple(fam.index_pool[k] for k in irredundant_subcover(fam))


def test_irredundant_demo_order():
    assert subcover(DEMO) == ("y3",)


def test_irredundant_keeps_minimal_family():
    fam = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}, "y2": {"x1"}})
    assert subcover(fam) == ("y1", "y2")


def test_irredundant_duplicate_sets_first_removed():
    fam = CoverFamily.build(["1"], {"a": {"1"}, "b": {"1"}}, ["a", "b"])
    assert subcover(fam) == ("b",)


def test_irredundant_disjoint_singletons():
    fam = CoverFamily.build(
        ["a", "b", "c"], {f"y{i}": {p} for i, p in enumerate("abc")}
    )
    rep = check_cover(fam)
    assert rep.is_minimal and rep.essential == ("y0", "y1", "y2")
    assert subcover(fam) == ("y0", "y1", "y2")


def test_irredundant_empty_universe():
    # every family covers the empty universe, and no index is needed
    fam = CoverFamily.build([], {"y1": {"x"}})
    rep = check_cover(fam)
    assert rep.is_cover and rep.essential == () and not rep.is_minimal
    assert subcover(fam) == ()


def test_irredundant_many_duplicate_sets_keeps_the_last():
    fam = CoverFamily.build(["p"], {f"y{i}": {"p"} for i in range(25)})
    rep = check_cover(fam)
    assert rep.is_cover and rep.essential == ()
    assert subcover(fam) == ("y24",)


def test_irredundant_requires_cover():
    fam = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}})
    with pytest.raises(NotACoverError):
        irredundant_subcover(fam)


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
    irr = subcover(fam)
    assert len(irr) <= len(fam.index_pool)
    # irredundant means: within the subfamily every index is essential
    sub = CoverFamily.build(fam.universe, {z: fam.sets[z] for z in irr}, irr)
    rep = check_cover(sub)
    assert rep.is_cover and rep.is_minimal
    assert fam.covers(irr)


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
    return (is_cover, uncovered, tuple(essential), witnesses,
            is_cover and len(essential) == len(pool))


def labelled(rep: CoverReport):
    """A report's fields, labels attached, as the oracle gives them."""
    return (rep.is_cover, rep.uncovered, rep.essential, rep.privately_covered,
            rep.is_minimal)


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
    assert labelled(check_cover(fam)) == _oracle_check_cover(universe, clipped, pool)
    if check_cover(fam).is_cover:
        assert subcover(fam) == _oracle_irredundant(
            universe, clipped, pool)
    else:
        with pytest.raises(NotACoverError):
            irredundant_subcover(fam)

    def mask(n):
        kind = rnd.choice(["none", "all", "some"])
        return np.array([kind == "all" or (kind == "some" and rnd.random() < 0.5)
                         for _ in range(n)], dtype=bool)

    in_pool, in_universe = mask(len(pool)), mask(len(universe))
    cut = fam.cut(in_pool, in_universe)
    sub_pool = [z for z, k in zip(pool, in_pool) if k]
    sub_universe = [w for w, k in zip(universe, in_universe) if k]
    want = CoverFamily.build(sub_universe, sets, sub_pool)
    assert (cut.universe, cut.index_pool) == (want.universe, want.index_pool)
    assert np.array_equal(cut.indptr, want.indptr)
    assert np.array_equal(cut.indices, want.indices)
    assert cut.sets == {z: clipped[z] & set(sub_universe) for z in sub_pool}
    assert labelled(check_cover(cut)) == _oracle_check_cover(
        want.universe, want.sets, sub_pool)
    if in_pool.all() and in_universe.all():
        assert cut is fam


# -- the implementation that read every row through numpy, kept as the
#    oracle of the one that reads short rows as Python integers


def _oracle_irredundant_rows(family):
    counts = family._counts.copy()
    keep = np.zeros(len(family.index_pool), dtype=bool)
    keep[family._private[0]] = True
    ptr = family.indptr.tolist()
    for k in np.flatnonzero(~keep).tolist():
        m = family.indices[ptr[k]:ptr[k + 1]]
        if (counts[m] > 1).all():
            counts[m] -= 1
        else:
            keep[k] = True
    return np.flatnonzero(keep)


# up to 40 points and 12 sets, of up to 2 or up to 40 members, so that
# both the short-row and the long-row reading run
covering_families = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(2, 40).flatmap(lambda width: st.lists(
        st.frozensets(st.integers(0, n - 1), max_size=width), min_size=1, max_size=12)),
))


@settings(max_examples=300)
@given(covering_families)
def test_irredundant_subcover_matches_the_numpy_rows(data):
    n, raw = data
    raw = raw + [frozenset(range(n))] * 2  # always a cover, never minimal
    fam = CoverFamily.build(range(n), dict(enumerate(raw)))
    got = irredundant_subcover(fam)
    assert got.tolist() == _oracle_irredundant_rows(fam).tolist()
    sub = fam.cut(np.isin(np.arange(len(raw)), got), np.ones(n, dtype=bool))
    assert check_cover(sub).is_minimal
