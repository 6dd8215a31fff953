import itertools

import pytest

from hexscan import (
    BOUSTROPHEDON,
    HexSize,
    RETURNING,
    apply_op,
    canonical_mode,
    cell_count,
    make_uniform,
    modes_for_kind,
    run,
    serialize_picture,
)
from hexscan.langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    enumerate_pictures,
    exact_equivalent_for_size,
    image_set,
    picture_sort_key,
)
from hexscan.transforms import hbfa_to_hrfa

from conftest import m_all, m_at_most, m_none, m_parity, m_some, random_ghbfa, random_ghrfa

CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)
AB = ("a", "b")


def test_size_bound():
    bound = SizeBound.max_side(2)
    assert len(bound.sizes) == 8
    assert bound.sorted_sizes()[0] == HexSize(1, 1, 1)
    with pytest.raises(ValueError):
        SizeBound(frozenset())
    assert bound.image("R1").sizes == bound.sizes


def test_enumeration_counts():
    counts = {}
    for p in enumerate_pictures(AB, SizeBound.max_side(2)):
        counts[p.size] = counts.get(p.size, 0) + 1
    for size, count in counts.items():
        assert count == 2 ** cell_count(size)
    assert counts[HexSize(2, 2, 2)] == 128
    assert sum(counts.values()) == 190
    single = SizeBound(frozenset({HexSize(1, 1, 1)}))
    assert len(list(enumerate_pictures(["a"], single))) == 1
    assert len(list(enumerate_pictures(AB, single))) == 2


def test_enumeration_unique_and_ordered():
    bound = SizeBound.max_side(2)
    pics = list(enumerate_pictures(AB, bound))
    assert len(set(pics)) == len(pics)
    keys = [picture_sort_key(p) for p in pics]
    assert keys == sorted(keys)


def test_enumeration_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        next(enumerate_pictures([], SizeBound.max_side(1)))


def test_accepted_set_extremes():
    bound = SizeBound.max_side(2)
    everything = accepted_set(m_all(), CB, AB, bound)
    assert len(everything.members) == 190
    nothing = accepted_set(m_none(), CB, AB, bound)
    assert nothing.members == frozenset()


def test_accepted_set_matches_per_picture_runs(rng):
    from hexscan import run

    bound = SizeBound.max_side(2)
    for _ in range(4):
        a = random_ghbfa(rng)
        sample = accepted_set(a, CB, AB, bound)
        expect = {p for p in enumerate_pictures(AB, bound) if run(a, p, CB)}
        assert sample.members == frozenset(expect)


def test_accepted_set_large_size_does_not_recurse():
    # 1,141 cells and 39 border reads: deeper than the default recursion limit
    size = HexSize(20, 20, 20)
    sample = accepted_set(m_all(alphabet=("a",)), CB, ["a"], SizeBound(frozenset({size})))
    assert sample.members == frozenset({make_uniform(size, "a")})


def test_accepted_set_parity_sizes():
    bound = SizeBound.max_side(2)
    sample = accepted_set(m_parity(), CB, ["a"], bound)
    got_sizes = sorted(p.size.as_tuple() for p in sample.members)
    want = sorted(
        s.as_tuple() for s in bound.sizes if cell_count(s) % 2 == 0
    )
    assert got_sizes == want


def test_image_set_involution_and_cardinality(rng):
    bound = SizeBound.max_side(2)
    a = random_ghbfa(rng)
    sample = accepted_set(a, CB, AB, bound)
    assert image_set(sample, "R0").members == sample.members
    assert image_set(image_set(sample, "r1"), "r1").members == sample.members
    assert len(image_set(sample, "R2").members) == len(sample.members)


def test_bounded_equivalent_reflexive_and_symmetric(rng):
    bound = SizeBound.max_side(2)
    a = random_ghbfa(rng)
    assert bounded_equivalent(a, CB, a, CB, AB, bound) is None
    b = random_ghbfa(rng)
    w1 = bounded_equivalent(a, CB, b, CB, AB, bound)
    w2 = bounded_equivalent(b, CB, a, CB, AB, bound)
    assert (w1 is None) == (w2 is None)


def test_bounded_equivalent_smallest_counterexample():
    bound = SizeBound.max_side(2)
    w = bounded_equivalent(m_all(), CB, m_none(), CB, AB, bound)
    assert w is not None
    assert w.size == HexSize(1, 1, 1)
    assert serialize_picture(w) == "%HXP 1\nsize: 1 1 1\nrow: a\n"


def test_exact_oracle_agrees_with_enumeration(rng):
    size = HexSize(2, 2, 2)
    single = SizeBound(frozenset({size}))
    for _ in range(10):
        a1, a2 = random_ghbfa(rng), random_ghbfa(rng)
        exact = exact_equivalent_for_size(a1, CB, a2, CB, size)
        brute = bounded_equivalent(a1, CB, a2, CB, AB, single)
        assert (exact is None) == (brute is None)
        if exact is not None:
            # both report the canonical smallest witness
            assert picture_sort_key(exact) == picture_sort_key(brute)


def _sizes_up_to_cells(most):
    r = range(1, most + 1)
    return [s for s in (HexSize(l, m, n) for l in r for m in r for n in r)
            if cell_count(s) <= most]


def test_exact_oracle_agrees_with_enumeration_across_kinds(rng):
    # verdict and identical smallest witness, for every kind pairing and
    # every size of at most 13 cells
    from hexscan import DirectionMode, determinize

    # sparse languages keep the enumeration cheap at 13 cells
    boustrophedon = [m_at_most(0), m_at_most(1), m_at_most(2)]
    for _ in range(3):
        a = random_ghbfa(rng, max_per_partition=2)
        boustrophedon += [a, determinize(a)]
    returning = [hbfa_to_hrfa(a) for a in boustrophedon[:5]]
    returning += [random_ghrfa(rng, max_states=2) for _ in range(3)]
    pools = {BOUSTROPHEDON: boustrophedon, RETURNING: returning}
    kinds = [(BOUSTROPHEDON, BOUSTROPHEDON), (BOUSTROPHEDON, RETURNING),
             (RETURNING, BOUSTROPHEDON), (RETURNING, RETURNING)]
    unequal = 0
    for size in _sizes_up_to_cells(13):
        single = SizeBound(frozenset({size}))
        for (k1, k2), element in itertools.product(kinds, ("R0", "r1", "R3")):
            a1, a2 = rng.choice(pools[k1]), rng.choice(pools[k2])
            d1, d2 = DirectionMode(k1, element), DirectionMode(k2, element)
            exact = exact_equivalent_for_size(a1, d1, a2, d2, size)
            assert exact == bounded_equivalent(a1, d1, a2, d2, AB, single), (
                size, k1, k2, element)
            unequal += exact is not None
    assert unequal > 100


def test_exact_oracle_witness_on_lines_read_in_opposite_orientations():
    # rejects iff the first cell it reads on line 1, which it reads
    # backwards, holds b: the witness pins exactly that cell
    from hexscan import DirectionMode, automaton

    first_read = automaton(BOUSTROPHEDON, ["s", "t"], ["u", "v"], AB,
                           [("s", "a", "s"), ("s", "b", "s"), ("u", "a", "v"),
                            ("v", "a", "v"), ("v", "b", "v"), ("t", "a", "t"), ("t", "b", "t")],
                           [("s", "u"), ("v", "t"), ("t", "v")], "s", ["t", "v"])
    small = m_all(kind=RETURNING)  # fewer states than first_read: it carries the relation
    large = hbfa_to_hrfa(m_all())  # more states: first_read carries it
    for size, element in itertools.product(
            (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2)), ("R0", "r1")):
        b, r = DirectionMode(BOUSTROPHEDON, element), DirectionMode(RETURNING, element)
        single = SizeBound(frozenset({size}))
        for other in (small, large):
            for a1, d1, a2, d2 in ((first_read, b, other, r), (other, r, first_read, b)):
                w = exact_equivalent_for_size(a1, d1, a2, d2, size)
                assert w is not None and sorted(w.symbols()) == ["a", "b"]
                assert w == bounded_equivalent(a1, d1, a2, d2, AB, single)


@pytest.mark.parametrize("side", [4, 8])
def test_exact_oracle_witness_without_enumeration(side, monkeypatch):
    import time

    from hexscan import langtools

    def refuse(*args):
        raise AssertionError("the exact oracle enumerated pictures")

    monkeypatch.setattr(langtools, "enumerate_pictures", refuse)
    size = HexSize(side, side, side)
    start = time.perf_counter()
    w = exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size)
    assert time.perf_counter() - start < 1.0
    assert w == make_uniform(size, "b")


def test_exact_oracle_cross_kind():
    size = HexSize(2, 2, 2)
    a = m_parity(alphabet=AB)
    conv = hbfa_to_hrfa(a)
    assert exact_equivalent_for_size(a, CB, conv, CR, size) is None
    # at 7 cells the parity machine rejects everything, like m_none
    assert exact_equivalent_for_size(a, CB, m_none(), CB, size) is None
    # at an even-count size they differ
    even = HexSize(1, 2, 2)
    w = exact_equivalent_for_size(a, CB, m_none(), CB, even)
    assert w is not None and w.size == even
    assert exact_equivalent_for_size(m_all(), CB, m_none(), CB, size) is not None


def test_exact_oracle_self_equivalence(rng):
    a = random_ghrfa(rng)
    assert exact_equivalent_for_size(a, CR, a, CR, HexSize(2, 2, 2)) is None


def test_exact_oracle_requires_same_element(rng):
    from hexscan import DirectionMode

    a = random_ghbfa(rng)
    with pytest.raises(ValueError):
        exact_equivalent_for_size(a, CB, a, DirectionMode(BOUSTROPHEDON, "r1"),
                                  HexSize(2, 2, 2))


def test_union_over_modes_matches_any_direction(rng):
    bound = SizeBound.max_side(2)
    a = random_ghbfa(rng)
    union = set()
    for mode in modes_for_kind(BOUSTROPHEDON):
        union |= accepted_set(a, mode, AB, bound).members
    for p in enumerate_pictures(AB, bound):
        assert (p in union) == any(run(a, p, m) for m in modes_for_kind(a.kind))


def test_partitioned_verification_merges_by_union(rng):
    # verification jobs may be split by the first scanned cell's symbol and
    # merged by set union: purity makes the merge order-independent
    from hexscan import run, scan_lines

    bound = SizeBound.max_side(2)
    a = random_ghbfa(rng)
    whole = accepted_set(a, CB, AB, bound).members
    merged = set()
    for lead in AB:
        part = {
            p
            for p in enumerate_pictures(AB, bound)
            if p.get(scan_lines(p.size, CB).lines[0][0]) == lead and run(a, p, CB)
        }
        merged |= part
    assert merged == whole


def test_any_direction_language_splits_into_three_classes(rng):
    # the twelve returning-mode languages group into three classes whose
    # union matches the boustrophedon any-direction language
    bound = SizeBound.max_side(2)
    classes = {
        "one": ["R0", "R3", "r0", "r3"],
        "two": ["R1", "R4", "r1", "r4"],
        "three": ["R2", "R5", "r2", "r5"],
    }
    for _ in range(3):
        a = random_ghbfa(rng, max_per_partition=2)
        conv = hbfa_to_hrfa(a)
        any_b = set()
        for mode in modes_for_kind(BOUSTROPHEDON):
            any_b |= accepted_set(a, mode, AB, bound).members
        class_union = set()
        for ops in classes.values():
            for op in ops:
                from hexscan import DirectionMode

                class_union |= accepted_set(conv, DirectionMode(RETURNING, op),
                                            AB, bound).members
        assert any_b == class_union
