import itertools
import random

import pytest

from hexscan import (
    BOUSTROPHEDON,
    OP_NAMES,
    HexSize,
    RETURNING,
    apply_op,
    canonical_mode,
    cell_count,
    compose,
    invert,
    make_uniform,
    modes_for_kind,
    run,
    scan_lines,
    serialize_picture,
)
from hexscan.langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    enumerate_pictures,
    equal_at_every_size,
    equivalent,
    exact_equivalent_for_size,
    image_set,
    picture_sort_key,
)
from hexscan.automata import InvalidAutomatonError
from hexscan.hexgrid import cells, picture_from_cells
from hexscan.transforms import hbfa_to_hrfa, mirror_within_lines

from conftest import (ALL_MODES, m_all, m_at_most, m_invalid, m_none, m_parity, m_some, r_all,
                      r_no_short_then_long, random_ghbfa, random_ghrfa, symbol_at)

CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)
AB = ("a", "b")


def test_size_bound():
    bound = SizeBound.max_side(2)
    assert len(bound.sizes) == 8
    assert bound.sorted_sizes()[0] == HexSize(1, 1, 1)
    with pytest.raises(ValueError):
        SizeBound(frozenset())
    with pytest.raises(ValueError, match="^max side must be at least 1$"):
        SizeBound.max_side(0)
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


# the six sizes of 10 cells: text order puts (10,1,1) before (2,2,3)
TEN_CELLS = SizeBound(frozenset(
    HexSize(*t) for t in ((1, 1, 10), (1, 10, 1), (10, 1, 1), (2, 2, 3), (2, 3, 2), (3, 2, 2))))


def test_enumeration_follows_picture_order_at_sides_of_ten():
    pics = list(enumerate_pictures(["a"], TEN_CELLS))
    assert len(pics) == 6
    keys = [picture_sort_key(p) for p in pics]
    assert keys == sorted(keys)


def test_bounded_equivalent_witness_follows_picture_order_at_sides_of_ten():
    bound = SizeBound(frozenset({HexSize(10, 1, 1), HexSize(2, 2, 3)}))
    w = bounded_equivalent(m_all(), CB, m_none(), CB, ["a"], bound)
    assert w == make_uniform(HexSize(2, 2, 3), "a")


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
    # every mode of both kinds, over a one-letter and a multi-letter symbol,
    # so a fault of `_accepted_words` in one mode shows; machines are drawn
    # until two of each kind and alphabet accept some but not all pictures
    bound = SizeBound.max_side(2)
    for alphabet in (AB, ("a", "ab")):
        pictures = list(enumerate_pictures(alphabet, bound))
        for draw in (random_ghbfa, random_ghrfa):
            telling = 0
            for _ in range(40):
                a = draw(rng, alphabet=alphabet)
                counts = set()
                for mode in modes_for_kind(a.kind):
                    sample = accepted_set(a, mode, alphabet, bound)
                    expect = frozenset(p for p in pictures if run(a, p, mode))
                    assert sample.members == expect, (mode.code, alphabet)
                    counts.add(len(expect))
                telling += bool(counts - {0, len(pictures)})
                if telling == 2:
                    break
            else:
                raise AssertionError(f"40 draws gave {telling} machines that tell pictures apart")


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


def _side_lines(d1, d2, size, swap):
    """A pair search's `_lines` at `size` for modes d1 and d2, side 0 being d2's when `swap`."""
    from hexscan.langtools import _lines
    from hexscan.scan import _carried_lines

    mode0, mode1 = (d2, d1) if swap else (d1, d2)
    return _lines(_carried_lines(mode0, mode1), scan_lines(size, mode1).reading)


def _carries_a_line_of_one_cell(d1, d2, size):
    """Whether side 0 of a pair search carries a relation on a line of one cell at `size`."""
    reading, carried = _side_lines(d1, d2, size, False)
    return any(carried[i % 2] and len(line) == 1 for i, line in enumerate(reading))


def test_exact_oracle_agrees_with_enumeration_across_kinds(rng):
    # verdict and identical smallest witness, for every kind pairing and
    # every size of at most 13 cells, sizes where a line of one cell is
    # carried included
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
    unequal = one_cell_carried = 0
    for size in _sizes_up_to_cells(13):
        single = SizeBound(frozenset({size}))
        for (k1, k2), element in itertools.product(kinds, ("R0", "r1", "R3")):
            a1, a2 = rng.choice(pools[k1]), rng.choice(pools[k2])
            d1, d2 = DirectionMode(k1, element), DirectionMode(k2, element)
            exact = exact_equivalent_for_size(a1, d1, a2, d2, size)
            assert exact == bounded_equivalent(a1, d1, a2, d2, AB, single), (
                size, k1, k2, element)
            unequal += exact is not None
            one_cell_carried += _carries_a_line_of_one_cell(d1, d2, size)
    assert unequal > 100 and one_cell_carried > 100, (unequal, one_cell_carried)
    # r0-relative modes g and r0 after g: the plans read every line in
    # opposite orientations, or, across kinds, every even line
    unequal = one_cell_carried = 0
    for size in _sizes_up_to_cells(13):
        single = SizeBound(frozenset({size}))
        for (k1, k2), g in itertools.product(kinds, ("R0", "R1", "r1", "r4")):
            for e1, e2 in ((g, compose("r0", g)), (compose("r0", g), g)):
                a1, a2 = rng.choice(pools[k1]), rng.choice(pools[k2])
                d1, d2 = DirectionMode(k1, e1), DirectionMode(k2, e2)
                exact = exact_equivalent_for_size(a1, d1, a2, d2, size)
                assert exact == bounded_equivalent(a1, d1, a2, d2, AB, single), (
                    size, d1.code, d2.code)
                unequal += exact is not None
                one_cell_carried += _carries_a_line_of_one_cell(d1, d2, size)
    assert unequal > 100 and one_cell_carried > 100, (unequal, one_cell_carried)
    # r3- and R3-relative modes g and r3 or R3 after g: the plans read the
    # same lines in reverse order, so one side is read reversed, at sizes
    # of an even and of an odd line count
    unequal = equal = 0
    for size in _sizes_up_to_cells(13):
        single = SizeBound(frozenset({size}))
        for (k1, k2), g, relative in itertools.product(kinds, ("R0", "R1", "r1", "r4"),
                                                       ("r3", "R3")):
            a1, a2 = rng.choice(pools[k1]), rng.choice(pools[k2])
            d1, d2 = DirectionMode(k1, g), DirectionMode(k2, compose(relative, g))
            exact = exact_equivalent_for_size(a1, d1, a2, d2, size)
            assert exact == bounded_equivalent(a1, d1, a2, d2, AB, single), (
                size, d1.code, d2.code)
            unequal += exact is not None
            equal += exact is None
    assert unequal > 1000 and equal > 500, (unequal, equal)


def test_exact_oracle_agrees_with_enumeration_on_dense_languages(rng):
    # the same agreement where nearly every picture is accepted: thousands
    # of accepted words per size, and witnesses among a few pictures
    from hexscan import DirectionMode, OP_NAMES

    boustrophedon = [m_all(), m_some("a"), m_at_most(9), m_at_most(12)]
    returning = [m_all(kind=RETURNING), hbfa_to_hrfa(m_some("a")), hbfa_to_hrfa(m_at_most(9))]
    pools = {BOUSTROPHEDON: boustrophedon, RETURNING: returning}
    unequal = 0
    for size in _sizes_up_to_cells(13):
        single = SizeBound(frozenset({size}))
        for k1, k2 in itertools.product(pools, repeat=2):
            a1, a2 = rng.choice(pools[k1]), rng.choice(pools[k2])
            element = rng.choice(OP_NAMES)
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
    large = mirror_within_lines(small)  # same language, more states: first_read carries it
    assert len(small.states) < len(first_read.states) < len(large.states)
    for size, element in itertools.product(
            (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2)), ("R0", "r1")):
        b, r = DirectionMode(BOUSTROPHEDON, element), DirectionMode(RETURNING, element)
        single = SizeBound(frozenset({size}))
        for other in (small, large):
            for a1, d1, a2, d2 in ((first_read, b, other, r), (other, r, first_read, b)):
                w = exact_equivalent_for_size(a1, d1, a2, d2, size)
                assert w is not None
                assert sorted({sym for row in w.rows for sym in row}) == ["a", "b"]
                assert w == bounded_equivalent(a1, d1, a2, d2, AB, single)


def _reversed_lines(w, d1, d2):
    """`w` with the cells of every line the two plans read in opposite orientations reversed."""
    partner = {}
    for l1, l2 in zip(scan_lines(w.size, d1).reading, scan_lines(w.size, d2).reading):
        partner.update(zip(l1, l2))
    return picture_from_cells(w.size, {c: symbol_at(w, partner[c]) for c in cells(w.size)})


def test_reversed_line_pool_kills_a_walk_in_the_carriers_order(monkeypatch):
    # Pairs whose witness stops being a counterexample once the lines read
    # in opposite orientations are reversed: they tell a line from its
    # reverse at a fixed cell.  A search that walks such a line in the
    # relation carrier's order has both machines read it backwards, so its
    # witness is one of those reversed pictures and never the right one.
    from hexscan import DirectionMode
    from hexscan import langtools

    rng = random.Random(1111)
    sizes = (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2), HexSize(1, 3, 3))
    pool = []
    for draw in range(400):
        g = rng.choice(("R0", "r1", "R2", "r4"))
        if draw % 2 == 0:  # B:g against R:g: odd lines reversed
            a1, d1 = random_ghbfa(rng), DirectionMode(BOUSTROPHEDON, g)
            d2 = DirectionMode(RETURNING, g)
        else:  # g against r0 after g: every line reversed
            a1, d1 = random_ghrfa(rng), DirectionMode(RETURNING, g)
            d2 = DirectionMode(RETURNING, compose("r0", g))
        a2, size = random_ghrfa(rng), rng.choice(sizes)
        w = exact_equivalent_for_size(a1, d1, a2, d2, size)
        if w is None:
            continue
        r = _reversed_lines(w, d1, d2)
        if run(a1, r, d1) != run(a2, r, d2):
            continue
        assert w == bounded_equivalent(a1, d1, a2, d2, AB, SizeBound(frozenset({size})))
        pool.append((a1, d1, a2, d2, size, w))
        if len(pool) == 24:
            break
    else:
        raise AssertionError(f"400 draws gave only {len(pool)} pairs that tell a line from its reverse")
    # both machines carry the relation somewhere in the pool
    assert {len(a1.states) <= len(a2.states) for a1, _, a2, _, _, _ in pool} == {True, False}

    lines = langtools._lines

    def walk_in_carrier_order(*args):
        # a free line, given as its length, reads alike either way
        reading, carried = lines(*args)
        return tuple(line[::-1] if carried[i % 2] and type(line) is tuple else line
                     for i, line in enumerate(reading)), carried

    # the mutant asks from a slot of its own, and the module's slot is put
    # back when the test ends, so no later question meets its searches
    monkeypatch.setattr(langtools, "_kept", langtools._Kept())
    monkeypatch.setattr(langtools, "_lines", walk_in_carrier_order)
    killed = sum(exact_equivalent_for_size(a1, d1, a2, d2, size) != w
                 for a1, d1, a2, d2, size, w in pool)
    assert killed == len(pool)


def _plan_lines(d1, d2, size, swap, reverse):
    """`_lines` decided from both plans, line by line: its earlier form, kept as its reference.

    Side 0 reads its own plan's lines, or with `reverse` that plan
    transposed: last line first, each line backwards.  None where those do
    not match side 1's plan line for line, each line either way.
    """
    own = scan_lines(size, d2 if swap else d1).reading
    if reverse:
        own = tuple(line[::-1] for line in reversed(own))
    lines = []
    for l0, l1 in itertools.zip_longest(own, scan_lines(size, d1 if swap else d2).reading,
                                        fillvalue=()):
        if l0 == l1:
            lines.append((l1, False))
        elif l0 == l1[::-1]:
            lines.append((l1, True))
        else:
            return None
    return lines


def test_carrier_pattern_from_the_modes_matches_both_plans():
    # Every pair of modes at every size with max side <= 6, side 0 either
    # machine: where the modes read the same lines, in the same or the
    # reverse order, `_lines` reads side 1's plan, and carries each line of
    # more than one cell that side 0, transposed in reverse order, reads in
    # the opposite orientation (a line of one cell reads alike either way);
    # where they do not, the plans match in either order only at sizes with
    # a side of 1.
    from hexscan.scan import _carried_lines

    cases = {False: 0, True: 0}
    odd_counts = {False: 0, True: 0}
    dropped = 0
    for size in SizeBound.max_side(6).sorted_sizes():
        for d1, d2 in itertools.product(ALL_MODES, repeat=2):
            for swap in (False, True):
                order = _carried_lines(*((d2, d1) if swap else (d1, d2)))
                if order is None:
                    for reverse in (False, True):
                        if _plan_lines(d1, d2, size, swap, reverse) is not None:
                            assert min(size.as_tuple()) == 1, (d1.code, d2.code, size, swap)
                            dropped += 1
                    continue
                reverse = order[0]
                want = _plan_lines(d1, d2, size, swap, reverse)
                assert want is not None, (d1.code, d2.code, size, swap)
                reading, carried = _side_lines(d1, d2, size, swap)
                assert reading == tuple(line for line, _ in want)
                assert all(type(c) is bool for c in carried) and len(carried) == 2
                assert all(carried[i % 2] == c for i, (line, c) in enumerate(want)
                           if len(line) > 1), (d1.code, d2.code, size, swap)
                cases[reverse] += 1
                if reverse:
                    odd_counts[len(reading) % 2 == 1] += 1
    # 20,736 (mode pair, size) cases in each order, each with both swaps,
    # the reverse-order ones split evenly between the two parities of the
    # line count; other mode pairs match, in one order or the other, 5,376
    # times at sizes with a side of 1
    assert cases == {False: 41472, True: 41472}, cases
    assert odd_counts == {False: 20736, True: 20736}, odd_counts
    assert dropped == 5376, dropped


def _reversed_order_pool():
    """360 r3 and R3 questions, each (a1, d1, a2, d2, size, the exact oracle's answer).

    Equal and unequal, with both kinds on side 0, at sizes of both parities
    of line count.
    """
    from hexscan import DirectionMode
    from hexscan.transforms import family_normalizer

    rng = random.Random(2727)
    sizes = (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2), HexSize(1, 3, 3),
             HexSize(2, 2, 3), HexSize(3, 1, 2))
    pool = []
    for draw in range(120):
        a1 = random_ghbfa(rng, max_per_partition=2) if draw % 2 else random_ghrfa(rng)
        relative = rng.choice(("r3", "R3"))
        if draw % 4 < 2:  # the image machine: equal at every size
            base = a1 if a1.kind == RETURNING else hbfa_to_hrfa(a1)
            a2 = family_normalizer(base, relative)
        else:
            a2 = random_ghbfa(rng, max_per_partition=2) if draw % 8 < 4 else random_ghrfa(rng)
        h = rng.choice(OP_NAMES)
        d1, d2 = DirectionMode(a1.kind, h), DirectionMode(a2.kind, compose(relative, h))
        for size in rng.sample(sizes, 3):
            pool.append((a1, d1, a2, d2, size, exact_equivalent_for_size(a1, d1, a2, d2, size)))
    return pool


def test_reversed_order_pool_kills_three_oracle_mutants(monkeypatch):
    # Each of three wrong reversals must change the answer to some of the
    # reversed-order pool's questions:
    #   * x0 steps as the finals do, not as the finals stepped back over `#`;
    #   * xF never entered, the machine's start made the final;
    #   * the carried pattern taken for the wrong parity of the line count.
    from dataclasses import replace

    from hexscan import langtools

    pool = _reversed_order_pool()
    for a1, d1, a2, d2, size, w in pool:
        assert w == bounded_equivalent(a1, d1, a2, d2, AB, SizeBound(frozenset({size})))
    unequal = sum(w is not None for *_, w in pool)
    odd_counts = {len(scan_lines(size, d2).lines) % 2 for _, _, _, d2, size, _ in pool}
    assert 80 < unequal < len(pool) - 80 and odd_counts == {0, 1}, (unequal, len(pool))
    # the reversed side is the machine with fewer states, of either
    # argument and of either kind
    side0 = [min((a1, a2), key=lambda a: len(a.states)) for a1, _, a2, _, _, _ in pool]
    assert {a.kind for a in side0} == {BOUSTROPHEDON, RETURNING}
    assert {len(a1.states) <= len(a2.states) for a1, _, a2, _, _, _ in pool} == {True, False}
    assert all(langtools._aligned(a1, d1, a2, d2, AB).side0 is a
               for (a1, d1, a2, d2, _, _), a in zip(pool, side0))

    reversal, carried = langtools._reversal, langtools._carried_lines

    def x(a, q):
        return f"x[{sorted(a.states).index(q)}]"

    def start_not_stepped_back(a):
        r = reversal(a)
        rules = {rule for rule in r.value_rules if rule[0] != "x0"}
        rules |= {("x0", sym, x(a, p)) for p, sym, q in a.value_rules if q in a.finals}
        return replace(r, value_rules=frozenset(rules))

    def start_made_final(a):
        r = reversal(a)
        return replace(r, border_rules=r.border_rules - {(x(a, a.start), "xF")},
                       finals=frozenset({x(a, a.start)}))

    def wrong_parity(d0, d1):
        order = carried(d0, d1)
        return order and (order[0], order[1][::-1])

    kills = {}
    for name, mutant in (("_reversal", start_not_stepped_back), ("_reversal", start_made_final),
                         ("_carried_lines", wrong_parity)):
        # each mutant asks from a slot of its own, and the module's slot and
        # function are put back after it
        monkeypatch.setattr(langtools, "_kept", langtools._Kept())
        monkeypatch.setattr(langtools, name, mutant)
        kills[mutant.__name__] = sum(exact_equivalent_for_size(a1, d1, a2, d2, size) != w
                                     for a1, d1, a2, d2, size, w in pool)
        monkeypatch.undo()
    # the counts measured when this test was written are the floors
    assert kills["start_not_stepped_back"] >= 42 and kills["start_made_final"] >= 54, kills
    assert kills["wrong_parity"] >= 13, kills


def test_line_lengths_are_those_of_every_plan():
    # the lengths a size's verdict reads, against the plan the witness
    # search reads, at every size with max side <= 6 in all 24 modes
    from hexscan.scan import _line_lengths

    for size in SizeBound.max_side(6).sorted_sizes():
        for mode in ALL_MODES:
            assert _line_lengths(size, mode.element) == tuple(
                map(len, scan_lines(size, mode).reading)), (size, mode.code)


def _free_and_cell_walks(a1, d1, a2, d2, sizes):
    """Per size: its line count's parity, and a pair search's answer from free lines, from cells.

    Each walk has a fresh search of its own, and nothing is fixed.
    """
    from hexscan.langtools import _aligned, _lines
    from hexscan.scan import _line_lengths

    free, by_cell = (_aligned(a1, d1, a2, d2, AB) for _ in range(2))
    order, mode1 = free.order, free.mode1
    for size in sizes:
        lines = _lines(order, scan_lines(size, mode1).reading)
        lengths = _lines(order, _line_lengths(size, mode1.element))
        yield (len(lines[0]) % 2, free.search.mismatch(lengths, {}),
               by_cell.search.mismatch(lines, {}))


def test_free_line_verdict_equals_the_cell_walk():
    # criterion 13's pools with one mutant each (every size with max side
    # <= 4), and the reversed-order pool: the verdict read from line lengths
    # is the one the cells give, at both parities of the line count.  The
    # mutants of criterion 13's pools differ at sizes of even line count
    # only, up to max side 6.
    from dataclasses import replace

    from hexscan import determinize

    questions = []
    rng = random.Random(606)
    for _ in range(50):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)
        questions += [(a, CB, d, CB), (a, CB, replace(d, finals=d.finals ^ {d.start}), CB)]
    rng = random.Random(707)
    for _ in range(30):
        a = random_ghbfa(rng, max_per_partition=3)
        conv = hbfa_to_hrfa(a)
        kept = frozenset(f for f in conv.finals if not f.startswith("1["))
        questions += [(a, CB, conv, CR), (a, CB, replace(conv, finals=kept), CR)]
    seen = set()
    sizes = SizeBound.max_side(4).sorted_sizes()
    for question in questions:
        for parity, free, by_cell in _free_and_cell_walks(*question, sizes):
            assert free == by_cell, question[1:4:2]
            seen.add((parity, free))
    assert seen == {(0, False), (0, True), (1, False)}, seen
    seen = set()
    for a1, d1, a2, d2, size, w in _reversed_order_pool():
        ((parity, free, by_cell),) = _free_and_cell_walks(a1, d1, a2, d2, [size])
        assert free == by_cell == (w is not None), (d1.code, d2.code, size)
        seen.add((parity, free))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}, seen


def test_an_aligned_question_builds_plans_only_for_its_witness(monkeypatch):
    # at max side 6, relative elements R0, r0, r3 and R3, a source of each
    # kind: an equal question leaves no plan cached, and an unequal one
    # builds plans at its witness's size alone, after walking the sizes of
    # fewer cells from line lengths
    from hexscan import DirectionMode, langtools
    from hexscan.transforms import family_normalizer

    rng = random.Random(2828)
    bound = SizeBound.max_side(6)
    built_at = []

    def recorded(size, mode):
        built_at.append(size)
        return scan_lines(size, mode)

    monkeypatch.setattr(langtools, "scan_lines", recorded)
    # at most 9 `b`s against at most 12, or 4 against 5: a witness has 10 or 5 cells
    fewer = {BOUSTROPHEDON: (m_at_most(9), 12), RETURNING: (hbfa_to_hrfa(m_at_most(4)), 5)}
    for kind, relative in itertools.product((BOUSTROPHEDON, RETURNING), ("R0", "r0", "r3", "R3")):
        a = random_ghbfa(rng, max_per_partition=2) if kind == BOUSTROPHEDON else random_ghrfa(rng)
        base = a if kind == RETURNING else hbfa_to_hrfa(a)
        h, op = rng.choice(OP_NAMES), rng.choice(OP_NAMES)
        d1 = DirectionMode(kind, h)
        image = compose(relative, compose(h, invert(op)))
        scan_lines.cache_clear()
        assert equivalent(a, d1, family_normalizer(base, relative), DirectionMode(RETURNING, image),
                          AB, bound, op) is None
        assert scan_lines.cache_info().currsize == 0 and not built_at, (kind, relative)
        counter, most = fewer[kind]
        w = equivalent(counter, d1, m_at_most(most), DirectionMode(BOUSTROPHEDON, image),
                       AB, bound, op)
        assert cell_count(w.size) == (10 if kind == BOUSTROPHEDON else 5), (kind, relative)
        assert set(built_at) == {w.size} and scan_lines.cache_info().currsize <= 2, (
            kind, relative, w.size)
        built_at.clear()


G = ("R0", "r1", "R2", "r4")


def _modes(shape, g):
    """The two modes of a question shape, by the op `g` both derive from.

    Three shapes: B:g against R:g (odd lines reversed), g against r0 after
    g (every line reversed) and B:g against B:g.
    """
    from hexscan import DirectionMode

    if shape == 0:
        return DirectionMode(BOUSTROPHEDON, g), DirectionMode(RETURNING, g)
    if shape == 1:
        return DirectionMode(RETURNING, g), DirectionMode(RETURNING, compose("r0", g))
    return DirectionMode(BOUSTROPHEDON, g), DirectionMode(BOUSTROPHEDON, g)


def _machine(rng, mode, alphabet=AB):
    draw = random_ghbfa if mode.kind == BOUSTROPHEDON else random_ghrfa
    return draw(rng, alphabet=alphabet)


def _question(rng, alphabet=AB):
    """Two random machines and modes whose plans read the same lines, in one of `_modes`' shapes."""
    g = rng.choice(G)
    d1, d2 = _modes(rng.randrange(3), g)
    return _machine(rng, d1, alphabet), d1, _machine(rng, d2, alphabet), d2


def test_exact_oracle_answers_alike_in_either_argument_order():
    # the machine with fewer states is the search's side 0 whichever
    # argument it is, so its plan must move with it
    rng = random.Random(1515)
    sizes = (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2), HexSize(1, 3, 3))
    asked = unequal = 0
    for _ in range(300):
        a1, d1, a2, d2 = _question(rng)
        size = rng.choice(sizes)
        if len(a1.states) == len(a2.states):
            continue
        w = exact_equivalent_for_size(a1, d1, a2, d2, size)
        assert w == exact_equivalent_for_size(a2, d2, a1, d1, size), (d1.code, d2.code, size)
        assert w == bounded_equivalent(a1, d1, a2, d2, AB, SizeBound(frozenset({size})))
        asked += 1
        unequal += w is not None
    assert asked > 180 and unequal > 100


def _set_walk(search, lines, fixed):
    """`search.mismatch(lines, fixed)` as a walk over a Python set of frontier pairs.

    The pair search's earlier form, kept as its reference: every pair is
    stepped on every symbol a cell allows, the set is rebuilt after every
    read, the pair (0, 0) is dropped after every `#`, and a line of one
    cell is read uncarried.
    """
    from hexscan.automata import _union

    idx0, idx1 = search.sides
    identity = tuple(1 << p for p in range(len(idx0.names)))

    def step0(x0, sym):
        if isinstance(x0, int):
            return _union(idx0.value[sym], x0)
        start, rows = x0  # a relation, on a line side 0 carries
        if sym == "#":
            return _union(idx0.value[sym], _union(rows, start))
        return start, tuple(_union(rows, mask) for mask in idx0.value[sym])

    pairs = {(idx0.start_mask, idx1.start_mask)}
    reading, pattern = lines
    for i, order in enumerate(reading):
        if pattern[i % 2] and len(order) > 1:
            pairs = {((x0, identity), x1) for x0, x1 in pairs}
        for cell in order:
            at = fixed.get(cell)
            symbols = search.symbols if at is None else (at,)
            pairs = {(step0(x0, sym), _union(idx1.value[sym], x1))
                     for x0, x1 in pairs for sym in symbols}
        pairs = {(step0(x0, "#"), _union(idx1.value["#"], x1)) for x0, x1 in pairs}
        pairs.discard((0, 0))
        if not pairs:
            return False
    return any(bool(x0 & idx0.finals_mask) != bool(x1 & idx1.finals_mask) for x0, x1 in pairs)


def test_a_reused_pair_search_answers_as_a_fresh_one_and_the_set_walk():
    # One search per question answers many restrictions at three sizes and
    # in two pairs of modes, in shuffled order, from steps that earlier
    # answers memoized; each answer must equal a fresh search's and the set
    # walk's.
    from hexscan.langtools import _PairSearch

    rng = random.Random(1717)
    sizes = (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2), HexSize(1, 3, 3))
    swaps = set()
    answers = {True: 0, False: 0}
    for draw in range(24):
        shape = draw % 2  # B:g against R:g (odd lines reversed), or g against r0 after g
        modes = [_modes(shape, g) for g in rng.sample(G, 2)]
        a1, a2 = _machine(rng, modes[0][0]), _machine(rng, modes[0][1])
        asks = []
        for size in rng.sample(sizes, 3):
            grid = list(cells(size))
            for d1, d2 in modes:
                asks.append((d1, d2, size, {}))
                for _ in range(8):
                    pinned = rng.sample(grid, rng.randint(1, len(grid)))
                    asks.append((d1, d2, size, {c: rng.choice(AB) for c in pinned}))
        for first, second, backwards in ((a1, a2, False), (a2, a1, True)):
            swap = len(second.states) < len(first.states)
            swaps.add(swap)
            sides = [a._indexed for a in ((second, first) if swap else (first, second))]
            reused = _PairSearch(*sides, AB)
            rng.shuffle(asks)
            for d1, d2, size, fixed in asks:
                if backwards:
                    d1, d2 = d2, d1
                lines = _side_lines(d1, d2, size, swap)
                want = _set_walk(reused, lines, fixed)
                assert reused.mismatch(lines, fixed) == want, (d1.code, d2.code, size)
                assert _PairSearch(*sides, AB).mismatch(lines, fixed) == want
                answers[want] += 1
    # each argument carries the relation somewhere, and both answers are common
    assert swaps == {True, False}
    assert min(answers.values()) > 200, answers


def test_a_line_of_one_cell_carried_reads_as_the_set_walk_reads_it_uncarried():
    # the pair search enters the relation on every line of a carried parity;
    # on a line of one cell that must give the frontier the set walk's
    # direct read gives
    from hexscan.langtools import _PairSearch

    rng = random.Random(1818)
    sizes = (HexSize(2, 1, 1), HexSize(3, 1, 1), HexSize(1, 1, 2), HexSize(2, 1, 3),
             HexSize(3, 1, 2))
    answers = {True: 0, False: 0}
    for draw in range(40):
        d1, d2 = _modes(draw % 2, rng.choice(G))
        a1, a2 = _machine(rng, d1), _machine(rng, d2)
        swap = len(a2.states) < len(a1.states)
        search = _PairSearch(*(a._indexed for a in ((a2, a1) if swap else (a1, a2))), AB)
        for size in sizes:
            lines = _side_lines(d1, d2, size, swap)
            reading, carried = lines
            if not any(carried[i % 2] and len(line) == 1 for i, line in enumerate(reading)):
                continue
            grid = list(cells(size))
            for _ in range(4):
                pinned = rng.sample(grid, rng.randint(0, len(grid)))
                fixed = {c: rng.choice(AB) for c in pinned}
                want = _set_walk(search, lines, fixed)
                assert search.mismatch(lines, fixed) == want, (d1.code, d2.code, size)
                answers[want] += 1
    assert min(answers.values()) > 100, answers


KEPT_SIZES = (HexSize(1, 1, 2), HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2),
              HexSize(1, 3, 3))


def _kept_questions(monkeypatch, seed, count):
    """Seeded questions, and their fresh answers at every size of `KEPT_SIZES`.

    Each draw gives the same two machines over the one-symbol alphabet
    ("a",) and over the default one, each in two pairs of modes, so even
    and odd questions alternate between the two pairs.  A fresh answer
    comes from an empty slot, so from a search of its own.
    """
    from hexscan import langtools

    rng = random.Random(seed)
    questions = []
    for _ in range(count):
        shape = rng.randrange(3)
        modes = [_modes(shape, g) for g in rng.sample(G, 2)]
        a1, a2 = _machine(rng, modes[0][0]), _machine(rng, modes[0][1])
        questions += [(a1, d1, a2, d2, alphabet) for alphabet in (("a",), None) for d1, d2 in modes]
    fresh = {}
    for i, (a1, d1, a2, d2, alphabet) in enumerate(questions):
        for size in KEPT_SIZES:
            monkeypatch.setattr(langtools, "_kept", langtools._Kept())
            fresh[i, size] = exact_equivalent_for_size(a1, d1, a2, d2, size, alphabet)
    return questions, fresh


def test_a_kept_search_answers_as_a_fresh_one_in_every_call_order(monkeypatch):
    # The oracle keeps the last question's search: every answer it gives
    # must equal a fresh search's, whether the slot is replaced on every
    # call, one question is asked at every size in turn, or the arguments
    # of one question come in both orders.
    from hexscan import langtools

    questions, fresh = _kept_questions(monkeypatch, 1818, 30)
    monkeypatch.setattr(langtools, "_kept", langtools._Kept())
    # even questions, then odd ones: no two calls in a row ask the same question
    replaced = [(i, size) for size in KEPT_SIZES
                for i in sorted(range(len(questions)), key=lambda i: i % 2)]
    # one question at every size, then the same machines in the other modes
    in_turn = [(i, size) for i in range(len(questions)) for size in KEPT_SIZES]
    for order in (replaced, in_turn):
        for i, size in order:
            a1, d1, a2, d2, alphabet = questions[i]
            assert exact_equivalent_for_size(a1, d1, a2, d2, size, alphabet) == fresh[i, size], \
                (i, d1.code, d2.code, size, alphabet)
    for i, size in in_turn:
        a1, d1, a2, d2, alphabet = questions[i]
        assert exact_equivalent_for_size(a2, d2, a1, d1, size, alphabet) == fresh[i, size]
        assert exact_equivalent_for_size(a1, d1, a2, d2, size, alphabet) == fresh[i, size]
    unequal = sum(w is not None for w in fresh.values())
    assert 150 < unequal < len(fresh) - 150, (unequal, len(fresh))


def test_a_kept_search_is_replaced_when_the_line_order_turns(monkeypatch):
    # The same machines and symbols in modes of the same line order and of
    # the reverse order are two questions: the reverse one reads side 0
    # reversed, so neither's kept search may answer the other.
    from hexscan import DirectionMode, langtools

    rng = random.Random(2828)
    monkeypatch.setattr(langtools, "_kept", langtools._Kept())
    unequal = {False: 0, True: 0}
    for _ in range(20):
        a1, a2 = random_ghrfa(rng), random_ghrfa(rng)
        g = rng.choice(OP_NAMES)
        d1 = DirectionMode(RETURNING, g)
        modes = [DirectionMode(RETURNING, compose(rng.choice(pair), g))
                 for pair in (("R0", "r0"), ("r3", "R3"))]
        for size in KEPT_SIZES:
            for reverse, d2 in enumerate(modes):
                w = exact_equivalent_for_size(a1, d1, a2, d2, size)
                assert w == bounded_equivalent(a1, d1, a2, d2, AB, SizeBound(frozenset({size}))), (
                    d1.code, d2.code, size)
                unequal[bool(reverse)] += w is not None
    assert min(unequal.values()) > 20, unequal


def test_two_threads_asking_different_questions_get_a_single_threads_answers(monkeypatch):
    import sys
    import threading

    from hexscan import langtools

    questions, fresh = _kept_questions(monkeypatch, 1819, 8)
    # the main thread's own question, which neither thread may replace
    main = (m_all(), CB, m_some("a"), CB, HexSize(2, 2, 2))
    assert exact_equivalent_for_size(*main) == make_uniform(HexSize(2, 2, 2), "b")
    kept = langtools._kept.question
    halves = (range(0, len(questions), 2), range(1, len(questions), 2))
    barrier = threading.Barrier(2, timeout=60)
    got = [[], []]

    def ask(half):
        for i in halves[half]:
            a1, d1, a2, d2, alphabet = questions[i]
            for size in KEPT_SIZES:
                barrier.wait()
                got[half].append(exact_equivalent_for_size(a1, d1, a2, d2, size, alphabet))

    threads = [threading.Thread(target=ask, args=(half,)) for half in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for half in (0, 1):
        assert got[half] == [fresh[i, size] for i in halves[half] for size in KEPT_SIZES]
    assert langtools._kept.question is kept


def test_a_kept_question_is_reused_only_for_the_same_arguments(monkeypatch):
    # The kept question is keyed by the call's arguments but the size, by
    # value: a set changed between two calls asks a new question, a
    # generator is read once, and new machines equal to the kept ones get
    # the kept question, and its answers.
    from hexscan import langtools

    monkeypatch.setattr(langtools, "_kept", langtools._Kept())
    size = HexSize(2, 2, 2)
    alphabet = {"a"}
    # over {"a"} every picture holds an "a"
    assert exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size, alphabet) is None
    kept = langtools._kept.question
    alphabet.add("b")
    assert exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size, alphabet) == \
        make_uniform(size, "b")
    assert langtools._kept.question is not kept
    monkeypatch.setattr(langtools, "_kept", langtools._Kept())
    assert exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size, (s for s in AB)) == \
        exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size, AB) == \
        make_uniform(size, "b")
    kept = langtools._kept.question
    assert m_all() is not m_all() and m_all() == m_all()
    for size in KEPT_SIZES:
        assert exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size, (s for s in AB)) == \
            make_uniform(size, "b")
        assert equal_at_every_size(m_all(), CB, m_some("a"), CB, frozenset(AB)) is False
    assert langtools._kept.question is kept


def test_equivalent_leaves_the_kept_search_alone(monkeypatch):
    # only the per-size oracle keeps a search: `equivalent` answers from one
    # of its own, so this thread's slot holds the same question after it
    from hexscan import langtools
    from hexscan.langtools import equivalent

    size = HexSize(2, 2, 2)
    assert exact_equivalent_for_size(m_all(), CB, m_some("a"), CB, size) == make_uniform(size, "b")
    kept = langtools._kept.question
    for a2 in (m_some("a"), m_all()):
        equivalent(m_all(), CB, a2, CB, AB, SizeBound.max_side(2))
        assert langtools._kept.question is kept
    # and it builds each size's lines only when its walk reaches that size:
    # an unequal question at (1,1,1) builds no plan of a later size
    planned = set()
    plans = langtools.scan_lines

    def counted(size, mode):
        planned.add(size)
        return plans(size, mode)

    monkeypatch.setattr(langtools, "scan_lines", counted)
    one = HexSize(1, 1, 1)
    witness = equivalent(m_all(), CB, m_some("a"), CB, AB, SizeBound.max_side(6))
    assert witness == make_uniform(one, "b")
    assert planned == {one}


def _aligned_questions(seed, count):
    """Seeded questions in R0, r0, r3 and R3 relatives, a source of each kind as a1.

    a2 is, in turn, a1's image, that image with one state's finality
    flipped, and a random machine of either kind.
    """
    from dataclasses import replace

    from hexscan import DirectionMode
    from hexscan.transforms import family_normalizer

    rng = random.Random(seed)
    for draw in range(count):
        kind = rng.choice((BOUSTROPHEDON, RETURNING))
        a1 = random_ghbfa(rng, max_per_partition=2) if kind == BOUSTROPHEDON else random_ghrfa(rng)
        relative = rng.choice(("R0", "r0", "r3", "R3"))
        image = family_normalizer(a1 if kind == RETURNING else hbfa_to_hrfa(a1), relative)
        if draw % 3 == 0:
            a2 = image
        elif draw % 3 == 1:
            a2 = replace(image, finals=image.finals ^ {rng.choice(sorted(image.states))})
        else:
            a2 = random_ghbfa(rng, max_per_partition=2) if rng.random() < 0.5 else random_ghrfa(rng)
        h = rng.choice(OP_NAMES)
        yield a1, DirectionMode(kind, h), a2, DirectionMode(a2.kind, compose(relative, h))


def test_every_question_the_closure_certifies_is_equal_at_every_walked_size(monkeypatch):
    # Where `equal_at_every_size` certifies a question, `equivalent` walks
    # every size with max side <= 4 and finds none unequal, and the kept
    # question answers None at each size without calling `mismatch`.  The
    # closure answers alike with the arguments swapped.  The counts measured
    # when this test was written are the floors.
    from hexscan import langtools

    bound = SizeBound.max_side(4)
    walks = []
    mismatch = langtools._PairSearch.mismatch

    def counted(search, lines, fixed):
        walks.append(lines)
        return mismatch(search, lines, fixed)

    monkeypatch.setattr(langtools._PairSearch, "mismatch", counted)
    certified = refuted = 0
    for a1, d1, a2, d2 in _aligned_questions(3030, 150):
        walks.clear()
        equal = equal_at_every_size(a1, d1, a2, d2)
        assert equal_at_every_size(a2, d2, a1, d1) is equal, (d1.code, d2.code)
        if equal:
            certified += 1
            assert all(exact_equivalent_for_size(a1, d1, a2, d2, s) is None for s in bound.sizes)
            assert not walks, (d1.code, d2.code)
            assert equivalent(a1, d1, a2, d2, AB, bound) is None, (d1.code, d2.code)
            assert walks, (d1.code, d2.code)
        else:
            refuted += equivalent(a1, d1, a2, d2, AB, bound) is not None
    # on this seed, every question left uncertified is unequal at some size
    assert certified >= 117 and refuted == 150 - certified, (certified, refuted)


def test_a_pair_equal_at_every_size_may_be_left_uncertified():
    # The two machines differ only on words whose first line has 1 cell and
    # second line at least 3, which no size reads: the closure does not
    # certify them, and both per-size oracles find them equal at every size
    # with max side <= 6.  "Not certified" is never "unequal".
    a, everything = r_no_short_then_long(), r_all(("a",))
    assert equal_at_every_size(a, CR, everything, CR) is False
    assert equal_at_every_size(everything, CR, a, CR) is False
    sizes = SizeBound.max_side(6)
    assert all(exact_equivalent_for_size(a, CR, everything, CR, s) is None for s in sizes.sizes)
    assert equivalent(a, CR, everything, CR, ("a",), sizes) is None


def test_the_closure_reads_no_empty_line():
    # `lines` dies on a `#` at a line's start and accepts every other word:
    # it is equal to the all-words machine wherever no line is empty, so at
    # every size, in either line order
    from hexscan import DirectionMode, automaton

    lines = automaton(RETURNING, ["s", "i"], [], AB,
                      [(p, x, "i") for p in ("s", "i") for x in AB], [("i", "s")], "s", ["s"])
    for relative in ("R0", "r0", "r3", "R3"):
        d2 = DirectionMode(RETURNING, relative)
        assert equal_at_every_size(lines, CR, r_all(), d2) is True, relative
        assert equal_at_every_size(r_all(), d2, lines, CR) is True, relative
        assert equivalent(lines, CR, r_all(), d2, AB, SizeBound.max_side(3)) is None, relative


def test_the_closure_steps_the_start_pair_again_inside_a_line():
    # `second_a` accepts exactly the words of two lines whose second is
    # "a": it is back at its start after that `a`, and never inside its
    # first line, so the closure meets the start pair again only inside an
    # odd line, where it must step it as any other pair
    from dataclasses import replace

    from hexscan import automaton

    second_a = automaton(RETURNING, ["s", "m", "e", "f"], [], AB,
                         [(p, x, "m") for p in ("s", "m") for x in AB] + [("e", "a", "s")],
                         [("m", "e"), ("s", "f")], "s", ["f"])
    nothing = replace(r_all(), finals=frozenset())
    assert equal_at_every_size(nothing, CR, second_a, CR) is False
    w = equivalent(nothing, CR, second_a, CR, AB, SizeBound.max_side(2))
    assert w == make_uniform(HexSize(1, 2, 1), "a")


def _line_count_parity(kind, odd):
    """Accepts iff the line count is odd, with `odd`, else iff it is even.

    State e follows an even count of lines and o an odd one, forward and
    backward states of a boustrophedon machine alike.
    """
    from hexscan import automaton

    rules = [(p, x, p) for p in ("e", "o") for x in AB]
    return automaton(kind, ["e"], ["o"], AB, rules, [("e", "o"), ("o", "e")], "e",
                     ["o" if odd else "e"])


def test_the_closure_tests_the_ends_of_lines_of_either_parity():
    # A machine that accepts iff the line count is odd, or iff it is even,
    # against an all-pictures machine: they differ only at line counts of
    # one parity, so the closure must test refutation after lines of either
    # parity, in both line orders, with either machine as side 0.
    from hexscan import DirectionMode

    for kind, odd, relative, g in itertools.product((BOUSTROPHEDON, RETURNING), (False, True),
                                                    ("R0", "r0", "r3", "R3"), ("R0", "r1")):
        count = _line_count_parity(kind, odd)
        d1, d2 = DirectionMode(kind, g), DirectionMode(RETURNING, compose(relative, g))
        # as many states as `count`, which is then side 0, and fewer
        for everything in (m_all(RETURNING), r_all()):
            assert equal_at_every_size(count, d1, everything, d2) is False, (d1.code, d2.code)
            w = equivalent(count, d1, everything, d2, AB, SizeBound.max_side(2))
            assert len(scan_lines(w.size, d2).lines) % 2 == (0 if odd else 1), (d1.code, d2.code)


def _asymmetric_boustrophedon_questions():
    """36 equal questions: 12 boustrophedon sources, each against three images of it.

    A source is kept only where it tells an odd line from its reverse: read
    as a returning machine, with no line reversed, it accepts another
    language at one of four small sizes.  That is how
    `test_reversed_line_pool_kills_a_walk_in_the_carriers_order` selects its
    pairs.  Each source a, in B:h, is asked against its conversion in R:h
    (the same line order) and against the conversion's r3 and R3 images in
    R:r3 and R:R3 after h (the reverse order, where a is side 0 and the
    lines it carries depend on the parity of the line count).
    """
    from dataclasses import replace

    from hexscan import DirectionMode
    from hexscan.transforms import family_normalizer

    rng = random.Random(3131)
    sizes = (HexSize(2, 2, 2), HexSize(2, 3, 2), HexSize(3, 2, 2), HexSize(2, 2, 3))
    questions = []
    for _ in range(400):
        a = random_ghbfa(rng, max_per_partition=2)
        if all(exact_equivalent_for_size(a, CB, replace(a, kind=RETURNING), CR, s) is None
               for s in sizes):
            continue
        conv, h = hbfa_to_hrfa(a), rng.choice(OP_NAMES)
        d1 = DirectionMode(BOUSTROPHEDON, h)
        questions.append((a, d1, conv, DirectionMode(RETURNING, h)))
        for relative in ("r3", "R3"):
            questions.append((a, d1, family_normalizer(conv, relative),
                              DirectionMode(RETURNING, compose(relative, h))))
        if len(questions) == 36:
            return questions
    raise AssertionError(f"400 draws gave only {len(questions) // 3} asymmetric sources")


def test_asymmetric_pool_kills_two_wrong_carried_patterns(monkeypatch):
    # Every question is certified.  Two wrong carried patterns must lose
    # certificates, and the per-size oracle, walking with the same wrong
    # pattern, must find a witness within max side 6 on the same questions:
    #   * the pattern shifted by one line, in either line order;
    #   * in reverse order, the pattern of the wrong parity of the line
    #     count (the same order has one pattern for both parities).
    from hexscan import langtools

    questions = _asymmetric_boustrophedon_questions()
    assert all(equal_at_every_size(*q) for q in questions)
    carried = langtools._carried_lines

    def shifted(d0, d1):
        order = carried(d0, d1)
        return order and (order[0], tuple(pattern[::-1] for pattern in order[1]))

    def wrong_parity(d0, d1):
        order = carried(d0, d1)
        return order and (order[0], order[1][::-1])

    sizes = SizeBound.max_side(6).sorted_sizes()
    for mutant, reversed_only in ((shifted, False), (wrong_parity, True)):
        monkeypatch.setattr(langtools, "_kept", langtools._Kept())
        monkeypatch.setattr(langtools, "_carried_lines", mutant)
        for i, q in enumerate(questions):
            should_kill = not reversed_only or i % 3 > 0
            assert equal_at_every_size(*q) is not should_kill, (mutant.__name__, i)
            if should_kill:
                assert any(exact_equivalent_for_size(*q, s) for s in sizes), (mutant.__name__, i)
        monkeypatch.undo()


def test_exact_oracle_agrees_with_enumeration_on_multi_character_symbols():
    alphabet = ("ab", "c1", "xyz")
    rng = random.Random(1516)
    sizes = _sizes_up_to_cells(6)
    unequal = 0
    for _ in range(600):
        a1, d1, a2, d2 = _question(rng, alphabet)
        size = rng.choice(sizes)
        w = exact_equivalent_for_size(a1, d1, a2, d2, size)
        assert w == bounded_equivalent(a1, d1, a2, d2, alphabet, SizeBound(frozenset({size})))
        unequal += w is not None
    assert unequal > 300


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


def test_exact_oracle_defaults_to_the_symbols_both_machines_read():
    # machines over {a,b} and {a,c}: with no alphabet given the question is
    # asked over {a}, where some cell is always `a` and parity tells sizes
    # of odd cell count from even ones
    all_ac = m_all(alphabet=("a", "c"))
    for size in (HexSize(1, 1, 1), HexSize(1, 2, 2), HexSize(2, 2, 2)):
        single = SizeBound(frozenset({size}))
        assert exact_equivalent_for_size(m_some("a"), CB, all_ac, CB, size) is None
        w = exact_equivalent_for_size(m_parity(alphabet=AB), CB, all_ac, CB, size)
        assert w == bounded_equivalent(m_parity(alphabet=AB), CB, all_ac, CB, ("a",), single)
        assert (w is None) == (cell_count(size) % 2 == 0), size
    assert w == make_uniform(HexSize(2, 2, 2), "a")


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


def _ask(entry, a, d, symbol):
    """Ask one question about (a, d) over {symbol} through each entry point."""
    one = HexSize(1, 1, 1)
    bound = SizeBound(frozenset({one}))
    if entry == "run":
        return run(a, make_uniform(one, symbol), d)
    if entry == "accepted_set":
        return accepted_set(a, d, [symbol], bound)
    if entry == "bounded_equivalent":
        return bounded_equivalent(a, d, m_all(), CB, [symbol], bound)
    return exact_equivalent_for_size(a, d, m_all(), CB, one, [symbol])


@pytest.mark.parametrize("case", ["mode kind", "foreign symbol", "invalid machine"])
def test_every_entry_point_checks_a_question_alike(case):
    # the machine's builder: an invalid machine is refused when it is built
    build, d, symbol, error = m_all, CB, "a", ValueError
    if case == "mode kind":
        d = CR
    elif case == "foreign symbol":
        symbol = "z"
    else:
        build, error = m_invalid, InvalidAutomatonError
    messages = set()
    for entry in ("run", "accepted_set", "bounded_equivalent", "exact_equivalent_for_size"):
        with pytest.raises(ValueError) as info:
            _ask(entry, build(), d, symbol)
        assert type(info.value) is error, entry
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_exact_oracle_self_equivalence(rng):
    a = random_ghrfa(rng)
    assert exact_equivalent_for_size(a, CR, a, CR, HexSize(2, 2, 2)) is None


def test_exact_oracle_requires_same_scan_lines(rng):
    # R0 reads the {q const} lines, r1 another family: no line corresponds
    from hexscan import DirectionMode

    a = random_ghbfa(rng)
    with pytest.raises(ValueError) as info:
        exact_equivalent_for_size(a, CB, a, DirectionMode(BOUSTROPHEDON, "r1"),
                                  HexSize(2, 2, 2))
    assert "B:R0" in str(info.value) and "B:r1" in str(info.value)


def test_every_oracle_refuses_an_empty_alphabet():
    bound = SizeBound.max_side(2)
    asks = [
        lambda: next(enumerate_pictures([], bound)),
        lambda: accepted_set(m_all(), CB, [], bound),
        lambda: bounded_equivalent(m_all(), CB, m_none(), CB, [], bound),
        lambda: exact_equivalent_for_size(m_all(), CB, m_none(), CB, HexSize(2, 2, 2), []),
    ]
    for ask in asks:
        with pytest.raises(ValueError, match="^alphabet must be non-empty$"):
            ask()


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
            if symbol_at(p, scan_lines(p.size, CB).lines[0][0]) == lead and run(a, p, CB)
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
