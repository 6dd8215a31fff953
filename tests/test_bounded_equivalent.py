"""The bounded oracles against their definition, their input checks, and the
enumeration oracle's member-free path.

`bounded_equivalent` reads a1 in the mode that makes its language the
op-image, compares symbol words in row-major order and builds one picture,
the witness.  `equivalent` answers the same question, from the exact oracle
at each size where the two plans read the same lines, in the same or the
reverse order.  Their definition is the
picture-level comparison below, over `accepted_set` and `image_set`; each
must agree with it on verdict and witness, byte for byte.  Ordering by cell
count, then serialized text, is kept as an independent reference for the
witness order wherever every side is at most 9 and every symbol character
sorts above the space.
"""

import random

import pytest

from hexscan import (
    OP_NAMES,
    BORDER_SYMBOL,
    BOUSTROPHEDON,
    RETURNING,
    DirectionMode,
    HexSize,
    canonical_mode,
    cell_count,
    compose,
    determinize,
    invert,
    langtools,
    make_uniform,
    scan_lines,
    serialize_automaton,
    serialize_picture,
)
from hexscan.automata import InvalidAutomatonError, _union
from hexscan.cli import main
from hexscan.langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    equivalent,
    image_set,
    picture_sort_key,
)
from hexscan.transforms import hbfa_to_hrfa, mirror_within_lines

from conftest import ALL_MODES, m_all, m_invalid, m_some, random_ghbfa, random_ghrfa

CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)
AB = ("a", "b")
BOUND2 = SizeBound.max_side(2)


def difference(a1, d1, a2, d2, alphabet, bound, op):
    """image(L1 within bound) ^ (L2 within the image bound), as pictures."""
    image = image_set(accepted_set(a1, d1, alphabet, bound), op)
    other = accepted_set(a2, d2, alphabet, bound.image(op))
    return image.members ^ other.members


def text_order(picture):
    return cell_count(picture.size), serialize_picture(picture)


# several sizes share the smallest cell count (3), and one has 4 cells
TIED = SizeBound(frozenset({HexSize(1, 1, 3), HexSize(1, 3, 1), HexSize(3, 1, 1),
                            HexSize(2, 1, 2)}))
BOUNDS = (SizeBound.max_side(1), BOUND2, TIED)
# one alphabet holds a multi-character symbol
ALPHABETS = (AB, ("a", "ab"))


def _question(rng):
    alphabet = rng.choice(ALPHABETS)
    a1 = (random_ghbfa(rng, max_per_partition=2, alphabet=alphabet) if rng.random() < 0.5
          else random_ghrfa(rng, alphabet=alphabet))
    if a1.kind == BOUSTROPHEDON:
        related = [a1, determinize(a1), hbfa_to_hrfa(a1)]
    else:
        related = [a1, determinize(a1), mirror_within_lines(a1)]
    unrelated = (random_ghbfa(rng, max_per_partition=2, alphabet=alphabet)
                 if rng.random() < 0.5 else random_ghrfa(rng, alphabet=alphabet))
    a2 = rng.choice(related + [unrelated])
    d1 = rng.choice([d for d in ALL_MODES if d.kind == a1.kind])
    d2 = rng.choice([d for d in ALL_MODES if d.kind == a2.kind])
    return a1, d1, a2, d2, alphabet, rng.choice(BOUNDS), rng.choice(OP_NAMES)


def test_oracle_matches_its_definition(monkeypatch):
    calls = {"exact": 0, "enumerated": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # `equivalent` builds one pair search per aligned question, equal or
    # not, and `bounded_equivalent` builds none
    monkeypatch.setattr(langtools, "_PairSearch", counted("exact", langtools._PairSearch))
    monkeypatch.setattr(langtools, "_accepted_words",
                        counted("enumerated", langtools._accepted_words))

    def paths(question):
        """`equivalent`'s answer, and whether it took the exact path, the enumeration path."""
        before = dict(calls)
        got = equivalent(*question)
        return got, calls["exact"] > before["exact"], calls["enumerated"] > before["enumerated"]

    rng = random.Random(8008)
    seen_ops, seen_modes, unequal, unequal_variants = set(), set(), 0, 0
    witness_sizes = set()
    # questions on which `equivalent` took the exact path, the enumeration path
    took_exact = took_enumeration = 0
    for i in range(1200):
        a1, d1, a2, d2, alphabet, bound, op = question = _question(rng)
        diff = difference(*question)
        want = min(diff, key=picture_sort_key) if diff else None
        before = calls["exact"]
        got = bounded_equivalent(*question)
        assert calls["exact"] == before, i
        assert got == want, (i, d1.code, d2.code, op)
        if got is not None:
            assert serialize_picture(got) == serialize_picture(want)
            assert got == min(diff, key=text_order), i
            unequal += 1
            witness_sizes.add(got.size)
        got, exact, enumerated = paths(question)
        assert got == want, (i, d1.code, d2.code, op)
        if got is not None:
            assert serialize_picture(got) == serialize_picture(want)
        # the two modes alone choose the path: the exact one where they read
        # the same lines, in the same or the reverse order
        image = compose(d1.element, invert(op))
        same_lines = compose(d2.element, invert(image)) in ("R0", "r0", "r3", "R3")
        assert (exact, enumerated) == (same_lines, not same_lines), (i, d1.code, d2.code, op)
        took_exact += exact
        took_enumeration += enumerated
        # the same question with d2 aligned to the image mode, in the same
        # order or with every line reversed: the exact path alone answers it
        aligned_d2 = DirectionMode(d2.kind, image if i % 2 == 0 else compose("r0", image))
        variant = (a1, d1, a2, aligned_d2, alphabet, bound, op)
        diff = difference(*variant)
        want = min(diff, key=picture_sort_key) if diff else None
        got, exact, enumerated = paths(variant)
        assert got == want, (i, d1.code, aligned_d2.code, op)
        if got is not None:
            assert serialize_picture(got) == serialize_picture(want)
            unequal_variants += 1
        assert (exact, enumerated) == (True, False), i
        took_exact += exact
        seen_ops.add(op)
        seen_modes |= {d1, d2}
    assert seen_ops == set(OP_NAMES) and seen_modes == set(ALL_MODES)
    assert 200 < unequal < 1000 and 100 < unequal_variants < 1000, (unequal, unequal_variants)
    # witnesses come from every 3-cell size of the tied bound
    assert {HexSize(1, 1, 3), HexSize(1, 3, 1), HexSize(3, 1, 1)} <= witness_sizes
    # both paths serve many questions: 389 of the 1,200 and their 1,200
    # variants, and 811 of the 1,200
    assert took_exact > 1000 and took_enumeration > 500, (took_exact, took_enumeration)


def test_equal_question_builds_no_picture(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle built or transformed a member picture")

    for name in ("_picture", "picture_from_cells", "apply_op", "accepted_set", "image_set"):
        monkeypatch.setattr(langtools, name, refuse)
    rng = random.Random(8009)
    for _ in range(5):
        a = random_ghrfa(rng)
        assert bounded_equivalent(a, CR, mirror_within_lines(a), CR, AB, BOUND2,
                                  op="r0") is None


@pytest.mark.parametrize("case", ["invalid a1", "invalid a2", "kind d1", "kind d2",
                                  "alphabet", "op", "budget", "budget at one size"])
def test_inputs_checked_before_enumeration(case, monkeypatch):
    def refuse(*args):
        raise AssertionError("worked before checking the question")

    # no picture is enumerated, and no plan or pair search is built
    for name in ("_accepted_words", "_searched_difference", "scan_lines", "_line_lengths",
                 "_PairSearch"):
        monkeypatch.setattr(langtools, name, refuse)
    # the machines' builders: an invalid machine is refused when it is built
    a1, d1, a2, d2, alphabet, bound, op = m_all, CB, m_all, CB, AB, BOUND2, "R0"
    oracles = (bounded_equivalent, equivalent)
    error = ValueError
    if case == "invalid a1":
        a1, error = m_invalid, InvalidAutomatonError
    elif case == "invalid a2":
        a2, error = m_invalid, InvalidAutomatonError
    elif case == "kind d1":
        d1 = CR
    elif case == "kind d2":
        d2 = CR
    elif case == "alphabet":
        alphabet = ("a", "b", "c")
    elif case == "op":
        op = "R6"
    elif case == "budget":
        # only `equivalent` has a budget: 2^37 pictures at (4,4,4) alone
        bound, op, oracles = SizeBound.max_side(4), "R1", (equivalent,)
    else:
        # 2^14491 pictures at one size: a count longer than the 4,300 digits
        # Python converts to text
        bound = SizeBound(frozenset({HexSize(70, 70, 70)}))
        op, oracles = "R1", (equivalent,)
    if case.startswith("budget"):
        # the budget reads the bound's cell counts, which an op keeps: no size
        # is imaged or sorted first
        monkeypatch.setattr(SizeBound, "image", refuse)
        monkeypatch.setattr(SizeBound, "sorted_sizes", refuse)
    for oracle in oracles:
        with pytest.raises(error) as info:
            oracle(a1(), d1, a2(), d2, alphabet, bound, op)
        if error is InvalidAutomatonError:
            assert str(info.value) == "forward rule f a -> b targets backward state"
    if case.startswith("budget"):
        assert str(info.value) == ("the question needs more than 1048576 pictures enumerated "
                                   "where the two plans do not align")


def test_equivalent_answers_a_question_that_fills_its_budget(monkeypatch):
    # an R1 question does not align; at (1,1,4) it needs exactly 16
    # pictures over {a,b}, and (1,1,1) adds 2 more
    monkeypatch.setattr(langtools, "_ENUMERATION_BUDGET", 16)
    question = (m_all(), CB, m_some("a"), CB, AB)
    full = SizeBound(frozenset({HexSize(1, 1, 4)}))
    w = equivalent(*question, full, "R1")
    assert w == bounded_equivalent(*question, full, "R1") == make_uniform(HexSize(1, 4, 1), "b")
    with pytest.raises(ValueError) as info:
        equivalent(*question, SizeBound(full.sizes | {HexSize(1, 1, 1)}), "R1")
    assert str(info.value) == ("the question needs more than 16 pictures enumerated "
                               "where the two plans do not align")


@pytest.mark.parametrize("args", [("--d1", "R:R0"), ("--d2", "R:r3"), ("--op", "R6")])
def test_equiv_refuses_bad_question_with_exit_2(capsys, tmp_path, args):
    path = tmp_path / "all.hxa"
    path.write_text(serialize_automaton(m_all()))
    argv = {"--a1": str(path), "--d1": "B:R0", "--a2": str(path), "--d2": "B:R0",
            "--op": "R0", "--max-side": "2"}
    argv[args[0]] = args[1]
    code = main([x for kv in argv.items() for x in kv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "error" in captured.err


def _suffix_words(a, size, d, symbols):
    """Accepted words by the earlier construction: every suffix built by
    tuple concatenation, backwards from the accepting frontiers, then each
    word moved into row-major order."""
    idx = a._indexed
    plan = scan_lines(size, d)
    borders = []
    for line in plan.reading:
        borders += [False] * len(line) + [True]
    edges, layer = [], {idx.start_mask}
    for border in borders:
        out = {}
        for frontier in layer:
            if border:
                nxt = _union(idx.value[BORDER_SYMBOL], frontier)
                out[frontier] = [(None, nxt)] if nxt else []
            else:
                out[frontier] = [(sym, nxt) for sym in symbols
                                 if (nxt := _union(idx.value[sym], frontier))]
        edges.append(out)
        layer = {nxt for steps in out.values() for _, nxt in steps}
    suffixes = {frontier: ((),) for frontier in layer if frontier & idx.finals_mask}
    for out in reversed(edges):
        before = {}
        for frontier, steps in out.items():
            acc = []
            for sym, nxt in steps:
                tails = suffixes.get(nxt, ())
                acc.extend(tails if sym is None else ((sym,) + tail for tail in tails))
            if acc:
                before[frontier] = tuple(acc)
        suffixes = before
    read = [cell for line in plan.reading for cell in line]
    order = sorted(range(len(read)), key=lambda k: read[k])  # cells sort row-major
    return [tuple(word[k] for k in order) for word in suffixes.get(idx.start_mask, ())]


def test_accepted_words_match_suffix_construction():
    rng = random.Random(8010)
    machines = [random_ghbfa(rng, max_per_partition=2) for _ in range(4)]
    machines += [random_ghrfa(rng) for _ in range(4)]
    accepting = 0
    for a in machines:
        for d in ALL_MODES:
            if d.kind != a.kind:
                continue
            for size in BOUND2.sizes:
                got = langtools._accepted_words(a, size, d, AB)
                want = _suffix_words(a, size, d, AB)
                assert len(got) == len(set(got)) == len(want), (d.code, size)
                assert set(got) == set(want), (d.code, size)
                accepting += bool(got)
    assert accepting > 100
    # a dense language: all 2^13 words at 13 cells
    dense = langtools._accepted_words(m_all(), HexSize(1, 1, 13), CB, AB)
    assert len(dense) == 2 ** 13
    assert set(dense) == set(_suffix_words(m_all(), HexSize(1, 1, 13), CB, AB))
