import random
from dataclasses import replace

import pytest

from hexscan import (
    BORDER_SYMBOL,
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    RETURNING,
    apply_op,
    automaton,
    canonical_mode,
    cell_count,
    determinize,
    make_uniform,
    modes_for_kind,
    parse_automaton,
    run,
    scan_lines,
    serialize_automaton,
    validate,
)
from hexscan import automata
from hexscan.automata import InvalidAutomatonError, _union
from hexscan.hexgrid import Cell, FormatError, cells as size_cells, picture_from_cells
from hexscan.langtools import SizeBound, bounded_equivalent, equivalent, exact_equivalent_for_size
from hexscan.transforms import hbfa_to_hrfa

from conftest import (ALL_MODES, fooling_witness, is_deterministic, m_all, m_none, m_parity,
                      m_plus_named, picture_of_linearization, random_ghbfa, random_ghrfa,
                      symbol_at)


def test_validate_ok():
    assert validate(m_all()) == []
    assert validate(m_parity()) == []


def refused(*fields):
    """The diagnostics that building `automaton(*fields)` raises."""
    with pytest.raises(InvalidAutomatonError) as info:
        automaton(*fields)
    assert str(info.value) == "; ".join(info.value.diagnostics)
    return info.value.diagnostics


def test_validate_forward_rule_typing():
    issues = refused(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                     [("f", "a", "b")], [("f", "b"), ("b", "f")], "f", ["f"])
    assert any("forward rule" in d and "targets backward state" in d for d in issues)
    issues = refused(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                     [("b", "a", "f")], [("f", "b"), ("b", "f")], "f", ["f"])
    assert issues == ["backward rule b a -> f targets forward state"]


def test_validate_border_rule_typing():
    issues = refused(BOUSTROPHEDON, ["f", "g"], ["b"], ["a"],
                     [("f", "a", "f")], [("f", "g")], "f", ["f"])
    assert any("border rule" in d for d in issues)
    issues = refused(BOUSTROPHEDON, ["f"], ["b", "c"], ["a"],
                     [("f", "a", "f")], [("f", "b"), ("b", "c")], "f", ["f"])
    assert issues == ["border rule b -> c from backward state must target forward state"]


def test_validate_misc_issues():
    issues = refused(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                     [("f", "z", "f")], [], "nope", ["ghost"])
    assert any("start state" in d for d in issues)
    assert any("final state" in d for d in issues)
    assert any("outside alphabet" in d for d in issues)
    cases = [
        (("X", ["f"], [], ["a"], [], [], "f", []), "unknown kind 'X'"),
        ((RETURNING, ["f"], ["f"], ["a"], [], [], "f", []), "states in both partitions: ['f']"),
        ((RETURNING, ["f"], [], ["a", "#"], [], [], "f", []),
         "alphabet contains reserved symbols ['#']"),
        ((RETURNING, ["f"], [], ["a"], [("f", "a", "g")], [], "f", []),
         "value rule f a -> g uses unknown state"),
        ((RETURNING, ["f"], [], ["a"], [], [("g", "f")], "f", []),
         "border rule g -> f uses unknown state"),
    ]
    for fields, issue in cases:
        assert refused(*fields) == [issue]
    # many bad rules among good ones: messages come in sorted rule order,
    # value rules first, and a rule's own messages in the order they are checked
    issues = refused(BOUSTROPHEDON, ["f", "g"], ["b", "c"], ["a"],
                     [("x", "a", "f"), ("g", "z", "c"), ("f", "a", "f"), ("f", "a", "x"),
                      ("f", "a", "b"), ("c", "a", "g"), ("b", "a", "b"), ("b", "a", "f")],
                     [("y", "f"), ("f", "g"), ("b", "f"), ("b", "c")], "f", ["f"])
    assert issues == [
        "backward rule b a -> f targets forward state",
        "backward rule c a -> g targets forward state",
        "forward rule f a -> b targets backward state",
        "value rule f a -> x uses unknown state",
        "value rule g z -> c uses symbol outside alphabet",
        "forward rule g z -> c targets backward state",
        "value rule x a -> f uses unknown state",
        "border rule b -> c from backward state must target forward state",
        "border rule f -> g from forward state must target backward state",
        "border rule y -> f uses unknown state",
    ]


def test_returning_rules_untyped():
    # returning machines may chain any states through borders
    a = automaton(RETURNING, ["p", "q"], [], ["a"],
                  [("p", "a", "q"), ("q", "a", "p")], [("q", "p"), ("p", "p")],
                  "p", ["p"])
    assert validate(a) == []


def test_run_m_all_and_m_none():
    p = make_uniform(HexSize(2, 2, 2), "a")
    assert run(m_all(), p) is True
    assert run(m_none(), p) is False
    assert any(run(m_all(), p, m) for m in modes_for_kind(BOUSTROPHEDON))
    assert not any(run(m_none(), p, m) for m in modes_for_kind(BOUSTROPHEDON))


def test_run_parity():
    # 19 cells is odd, 4 cells is even
    assert run(m_parity(), make_uniform(HexSize(3, 3, 3), "a")) is False
    assert run(m_parity(), make_uniform(HexSize(2, 2, 1), "a")) is True


def test_run_rejects_foreign_symbols_and_kind_mismatch():
    size = HexSize(2, 2, 2)
    zy = picture_from_cells(size, {c: "zy"[c.q % 2] for c in size_cells(size)})
    with pytest.raises(ValueError, match=r"^symbols \['y', 'z'\] outside automaton alphabet$"):
        run(m_all(), zy)
    # the kind is checked before the symbols
    with pytest.raises(ValueError, match="^mode kind returning does not match automaton kind "
                                         "boustrophedon$"):
        run(m_all(), zy, canonical_mode(RETURNING))
    # one picture object, whose symbol set is computed once, against machines
    # of two alphabets: it is refused exactly where its cells leave the alphabet
    p = picture_from_cells(size, {c: "abc"[c.r % 3] for c in size_cells(size)})
    narrow, wide = m_all(alphabet=("a", "b")), m_all(alphabet=("a", "b", "c"))
    for a in (narrow, wide, narrow):
        missing = sorted({sym for row in p.rows for sym in row} - a.alphabet)
        for mode in modes_for_kind(a.kind):
            if missing:
                with pytest.raises(ValueError) as info:
                    run(a, p, mode)
                assert str(info.value) == f"symbols {missing} outside automaton alphabet"
            else:
                assert run(a, p, mode) is True
    assert p.symbols == {"a", "b", "c"}


def test_run_requires_valid_automaton():
    # building is what refuses, so no run, construction or oracle is ever
    # handed an invalid machine
    assert refused(BOUSTROPHEDON, ["f"], ["b"], ["a"], [("f", "a", "b")], [], "f", ["f"]) == [
        "forward rule f a -> b targets backward state"]
    # the `#` row of the rule table holds border rules only, so a value rule
    # on `#` is refused rather than stepped as a border rule
    assert refused(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                   [("f", "a", "f"), ("f", "#", "f")], [("f", "b"), ("b", "f")],
                   "f", ["f"]) == ["value rule f # -> f uses symbol outside alphabet"]
    # a copy with changed fields is built, and so checked, too
    with pytest.raises(InvalidAutomatonError) as info:
        replace(m_all(), start="b")
    assert info.value.diagnostics == ["start state 'b' not a forward state"]


def test_indexed_automaton_is_collected_with_its_last_reference():
    import gc
    import weakref

    size = HexSize(1, 2, 2)
    cb = canonical_mode(BOUSTROPHEDON)
    kept = []  # one picture per machine asked by `ask_run`, held past the machine

    def ask_run(a):
        # each picture keeps its word and symbol set: pictures dropped while
        # the machine lives are collected, and below the machine is
        # collected while one lives on
        rng = random.Random(7)
        pictures = [_random_picture(rng, s, ("a", "b"))
                    for s in (size, HexSize(2, 3, 2), HexSize(3, 2, 4)) for _ in range(2)]
        for p in pictures:
            for mode in modes_for_kind(a.kind):
                run(a, p, mode)
        kept.append(pictures.pop())
        dropped = [weakref.ref(p) for p in pictures]
        del pictures, p
        gc.collect()
        assert all(ref() is None for ref in dropped)

    def ask_exact(a):
        # the exact oracle keeps its question's search until a different one is asked
        assert exact_equivalent_for_size(a, cb, a, cb, size) is None
        assert exact_equivalent_for_size(m_all(), cb, m_all(), cb, size) is None

    def ask_equivalent(a):
        # one question and no other: `equivalent` keeps no search once it returns
        assert equivalent(a, cb, a, cb, ("a", "b"), SizeBound.max_side(2)) is None

    for use in (ask_run, ask_exact, ask_equivalent):
        a = m_parity(alphabet=("a", "b"))
        use(a)
        alive = weakref.ref(a)
        del a
        gc.collect()
        assert alive() is None
    # the picture outlived the machine that ran it, and goes with its last reference
    held = weakref.ref(kept[0])
    assert "row_major_word" in vars(kept[0]) and "symbols" in vars(kept[0])
    kept.clear()
    gc.collect()
    assert held() is None


def test_trace_step_count_and_flags():
    p = make_uniform(HexSize(2, 2, 2), "a")
    accepted, trace = run(m_all(), p, trace=True)
    assert accepted
    plan = scan_lines(p.size, canonical_mode(BOUSTROPHEDON))
    assert len(trace.steps) == cell_count(p.size) + len(plan.lines)
    flags = [s.mode_flag for s in trace.steps]
    # lines of length 2,3,2 plus one border read each: f f f | b b b b | f f f
    assert flags == ["f"] * 3 + ["b"] * 4 + ["f"] * 3
    borders = [s for s in trace.steps if s.cell is None]
    assert len(borders) == len(plan.lines)
    assert all(s.symbol == "#" for s in borders)


def test_run_trace_follows_plan_reading_lines():
    for size in (HexSize(2, 3, 2), HexSize(3, 2, 2)):
        p = make_uniform(size, "a")
        for mode in ALL_MODES:
            plan = scan_lines(size, mode)
            _, trace = run(m_all(kind=mode.kind), p, mode, trace=True)
            cells, flags = [], []
            for line, backward in zip(plan.reading, plan.backward):
                cells += [*line, None]
                flags += ["b" if backward else "f"] * (len(line) + 1)
            assert [s.cell for s in trace.steps] == cells, mode.code
            assert [s.mode_flag for s in trace.steps] == flags, mode.code
            assert [s.position for s in trace.steps] == list(range(len(cells)))


def test_returning_runs_never_flip():
    r = m_all(kind=RETURNING)
    p = make_uniform(HexSize(2, 3, 2), "a")
    accepted, trace = run(r, p, trace=True)
    assert accepted
    assert all(s.mode_flag == "f" for s in trace.steps)


def test_boustrophedon_consumes_odd_lines_reversed():
    # mark the cells of the middle line; the backward pass must read them
    # bottom to top
    size = HexSize(2, 2, 2)
    plan = scan_lines(size, canonical_mode(BOUSTROPHEDON))
    mid = plan.lines[1]
    symbols = {c: f"s{i}" for i, c in enumerate(mid)}
    p = picture_from_cells(size, {c: symbols.get(c, "a") for c in size_cells(size)})
    a = m_all(alphabet=("a", "s0", "s1", "s2"))
    _, trace = run(a, p, trace=True)
    read = [s.symbol for s in trace.steps if s.cell in set(mid)]
    assert read == ["s2", "s1", "s0"]


def test_first_cell_sensitive_machine_varies_with_mode():
    # accepts iff the first scanned cell holds b
    a = automaton(
        BOUSTROPHEDON, ["f0", "f1"], ["b1"], ["a", "b"],
        [("f0", "b", "f1"), ("f1", "a", "f1"), ("f1", "b", "f1"),
         ("b1", "a", "b1"), ("b1", "b", "b1")],
        [("f1", "b1"), ("b1", "f1")], "f0", ["f1", "b1"],
    )
    size = HexSize(2, 2, 2)
    p = picture_from_cells(size, {c: "b" if c == Cell(1, -1) else "a" for c in size_cells(size)})
    results = {mode.code: run(a, p, mode) for mode in modes_for_kind(BOUSTROPHEDON)}
    assert results["B:R0"] is True
    assert any(results.values()) and not all(results.values())
    assert any(run(a, p, m) for m in modes_for_kind(a.kind))


def _reference_run(a, picture, mode):
    """(verdict, whether the frontier emptied before the last border read), cell by cell."""
    idx = a._indexed
    frontier = idx.start_mask
    emptied = False
    lines = scan_lines(picture.size, mode).reading
    for i, line in enumerate(lines):
        for cell in line:
            frontier = _union(idx.value[symbol_at(picture, cell)], frontier)
        frontier = _union(idx.value[BORDER_SYMBOL], frontier)
        emptied |= not frontier and i < len(lines) - 1
    return bool(frontier & idx.finals_mask), emptied


def _random_picture(rng, size, alphabet):
    return picture_from_cells(size, {c: rng.choice(alphabet) for c in size_cells(size)})


def test_run_agrees_with_its_trace_and_a_cell_by_cell_reference():
    rng = random.Random(2024)
    sizes = [HexSize(1, 1, 1)] + SizeBound.max_side(3).sorted_sizes()
    emptied = kept = 0
    for alphabet in (("a", "b"), ("ab", "c1", "xyz")):
        for _ in range(8):
            for a in (random_ghbfa(rng, alphabet=alphabet), random_ghrfa(rng, alphabet=alphabet)):
                for size in sizes:
                    p = _random_picture(rng, size, alphabet)
                    for mode in modes_for_kind(a.kind):
                        want, early = _reference_run(a, p, mode)
                        assert run(a, p, mode) is want, (mode.code, size)
                        assert run(a, p, mode, trace=True)[0] is want, (mode.code, size)
                        emptied += early
                        kept += not early
    # the reference sees some runs empty the frontier before their last line
    # and some keep a state to the end; `run` reads both kinds to the end
    assert emptied > 5000 and kept > 5000


def test_frontier_table_answers_like_the_reference_and_stays_bounded(monkeypatch):
    built = []  # the masks of the frontier nodes the current run builds
    stepped = []  # and the (mask, symbol) steps it computes

    class Counted(automata._Frontier):
        __slots__ = ()

        def __init__(self, mask, value, nodes):
            built.append(mask)
            super().__init__(mask, value, nodes)

        def __missing__(self, symbol):
            stepped.append((self.mask, symbol))
            return super().__missing__(symbol)

    monkeypatch.setattr(automata, "_Frontier", Counted)
    rng = random.Random(2417)
    sizes = SizeBound.max_side(4).sorted_sizes()
    questions = []
    for alphabet in (("a", "b"), ("ab", "c1", "xyz")):
        for _ in range(3):
            for a in (random_ghbfa(rng, alphabet=alphabet), random_ghrfa(rng, alphabet=alphabet)):
                bound = len(determinize(a).states) + 1
                questions += [(a, bound, _random_picture(rng, size, alphabet), mode)
                              for size in sizes for mode in modes_for_kind(a.kind)]
    # the criterion-12 witness on pictures of its fooling words, every other
    # one the prefix and suffix of one fooling pair
    witness, partner = fooling_witness(9)
    bound = len(determinize(witness).states) + 1
    plan = scan_lines(HexSize(2, 2, 2), canonical_mode(RETURNING))
    fwd, bwd = sorted(witness.forward_states), sorted(witness.backward_states)
    for i in range(48):
        x, c, q = rng.choice(fwd), rng.choice(bwd), rng.choice(bwd)
        y, d, r = (x, c, q) if i % 2 else (rng.choice(fwd), rng.choice(bwd), rng.choice(bwd))
        word = (f"g.{x}", "e", BORDER_SYMBOL, f"a.{c}.{q}", "e", f"v.{partner[y]}.{d}",
                BORDER_SYMBOL, f"d.{partner[r]}", "e", BORDER_SYMBOL)
        p = picture_of_linearization(plan, word)
        questions += [(witness, bound, p, mode) for mode in modes_for_kind(BOUSTROPHEDON)]
    rng.shuffle(questions)
    verdicts = set()
    for a, bound, p, mode in questions:
        want, _ = _reference_run(a, p, mode)
        built.clear()
        stepped.clear()
        assert run(a, p, mode) is want, (mode.code, p.size)
        # one node per subset met, each a reachable subset or the empty one,
        # and each step computed once
        assert 1 <= len(built) == len(set(built)) <= bound, (mode.code, p.size)
        assert len(stepped) == len(set(stepped)), (mode.code, p.size)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_run_frees_its_frontier_table_when_it_returns():
    import gc

    # q0 reads on and guesses an `a`, q1 .. q16 count the cells after it:
    # "the 16th cell from the end is `a`", whose runs meet many subsets
    counters = [f"q{i}" for i in range(17)]
    value = [("q0", s, "q0") for s in "ab"] + [("q0", "a", "q1")]
    value += [(p, s, q) for p, q in zip(counters[1:], counters[2:]) for s in "ab"]
    a = automaton(RETURNING, counters, [], ("a", "b"), value,
                  [(q, q) for q in counters], "q0", ["q16"])
    rng = random.Random(2418)
    pictures = [_random_picture(rng, HexSize(*(rng.randint(4, 9) for _ in range(3))), ("a", "b"))
                for _ in range(6)]
    want = [_reference_run(a, p, mode)[0] for p in pictures for mode in modes_for_kind(RETURNING)]
    # with the collector off, a table left in a reference cycle would stay;
    # a traced run builds the same table and must free it as well
    for trace in (False, True):
        gc.collect()
        gc.disable()
        try:
            got = [run(a, p, mode, trace=trace) for p in pictures
                   for mode in modes_for_kind(RETURNING)]
            left = sum(isinstance(o, automata._Frontier) for o in gc.get_objects())
        finally:
            gc.enable()
        if trace:
            assert all(("q16" in t.steps[-1].states_after) is ok for ok, t in got)
            got = [ok for ok, _ in got]
        assert got == want and True in got and False in got, trace
        assert left == 0, trace


def test_run_reads_a_ten_thousand_cell_picture_in_every_mode():
    size = HexSize(57, 58, 58)
    assert cell_count(size) == 9804
    p = _random_picture(random.Random(58), size, ("a", "b"))
    parity = m_parity(alphabet=("a", "b"))
    for a in (parity, hbfa_to_hrfa(parity)):
        for mode in modes_for_kind(a.kind):
            assert _reference_run(a, p, mode) == (True, False), mode.code
            assert run(a, p, mode) is True, mode.code
            assert run(a, p, mode, trace=True)[0] is True, mode.code


def test_direction_coherence_small(rng):
    bound = SizeBound.max_side(2)
    from hexscan.langtools import enumerate_pictures

    pics = list(enumerate_pictures(["a", "b"], bound))[:40]
    for _ in range(5):
        a = random_ghbfa(rng)
        for mode in modes_for_kind(BOUSTROPHEDON):
            for p in pics:
                assert run(a, p, mode) == run(a, apply_op(mode.element, p))


def test_mode2_coherence(rng):
    # changing mode by a group element matches transforming the picture:
    # run(a, p, mode(g)) == run(a, h(p), mode(g after inverse(h)))
    from hexscan import compose, invert
    from hexscan.symmetry import OP_NAMES
    from hexscan.langtools import enumerate_pictures

    a = random_ghbfa(rng)
    pics = list(enumerate_pictures(["a", "b"], SizeBound.max_side(2)))[::7]
    pairs = [(rng.choice(OP_NAMES), rng.choice(OP_NAMES)) for _ in range(20)]
    for g, h in pairs:
        mode_g = DirectionMode(BOUSTROPHEDON, g)
        mode_mix = DirectionMode(BOUSTROPHEDON, compose(g, invert(h)))
        for p in pics:
            assert run(a, p, mode_g) == run(a, apply_op(h, p), mode_mix)


def test_nfa_branching_determinized(rng):
    a = automaton(BOUSTROPHEDON, ["q", "p"], ["b"], ["a"],
                  [("q", "a", "q"), ("q", "a", "p"), ("p", "a", "p")],
                  [("p", "b"), ("b", "q")], "q", ["p", "b"])
    d = determinize(a)
    assert is_deterministic(d)
    bound = SizeBound.max_side(2)
    assert bounded_equivalent(a, canonical_mode(BOUSTROPHEDON), d,
                              canonical_mode(BOUSTROPHEDON), ["a"], bound) is None


def test_determinize_properties(rng):
    bound = SizeBound.max_side(2)
    cb = canonical_mode(BOUSTROPHEDON)
    for _ in range(10):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)
        assert validate(d) == []
        assert is_deterministic(d)
        assert d.kind == a.kind
        nf, nb = len(a.forward_states), len(a.backward_states)
        assert len(d.states) <= 2**nf + 2**nb
        assert bounded_equivalent(a, cb, d, cb, ["a", "b"], bound) is None


def test_determinize_returning(rng):
    bound = SizeBound.max_side(2)
    cr = canonical_mode(RETURNING)
    for _ in range(6):
        a = random_ghrfa(rng)
        d = determinize(a)
        assert is_deterministic(d)
        assert bounded_equivalent(a, cr, d, cr, ["a", "b"], bound) is None


def test_determinize_pool_tells_flipped_finality():
    # criterion 6's pool against determinize with one subset's finality
    # flipped: the kill counts measured at max side 2 are the floors
    bound = SizeBound.max_side(2)
    cb = canonical_mode(BOUSTROPHEDON)
    rng = random.Random(606)
    killed = {"some subset": 0, "start": 0, "last by name": 0}
    for _ in range(50):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)

        def caught(subset):
            mutant = replace(d, finals=d.finals ^ {subset})
            return bounded_equivalent(a, cb, mutant, cb, ["a", "b"], bound) is not None

        killed["some subset"] += any(caught(s) for s in sorted(d.states))
        killed["start"] += caught(d.start)
        killed["last by name"] += caught(max(d.states))
    assert killed["some subset"] >= 37 and killed["start"] >= 8
    assert killed["last by name"] >= 13, killed


def test_determinize_names_subsets_by_position():
    # {x,y} and {x+y} would share the name {x+y} if subsets pasted input
    # names; named by input positions they are {2+4} and {3}
    a = m_plus_named()
    assert not run(a, make_uniform(HexSize(1, 1, 1), "b"))
    d = determinize(a)
    assert is_deterministic(d)
    assert {"{2+4}", "{3}"} <= d.states
    cr = canonical_mode(RETURNING)
    assert bounded_equivalent(a, cr, d, cr, ["a", "b"], SizeBound.max_side(2)) is None
    sizes = SizeBound.max_side(4).sorted_sizes()
    assert len(sizes) == 64
    for size in sizes:
        assert exact_equivalent_for_size(a, cr, d, cr, size) is None, size


def test_serialize_parse_roundtrip(rng):
    for _ in range(8):
        a = random_ghbfa(rng)
        text = serialize_automaton(a, canonical_mode(BOUSTROPHEDON))
        b, direction = parse_automaton(text)
        assert b == a
        assert direction == canonical_mode(BOUSTROPHEDON)
    r = random_ghrfa(rng)
    b, direction = parse_automaton(serialize_automaton(r))
    assert b == r and direction is None


def test_parse_automaton_errors():
    with pytest.raises(FormatError):
        parse_automaton("%HXA 2\n")
    good = serialize_automaton(m_all())
    with pytest.raises(FormatError):
        parse_automaton(good.replace("kind: GHBFA", "kind: QUUX"))
    with pytest.raises(FormatError):
        parse_automaton(good + "rule: f a ->\n")
    with pytest.raises(FormatError):
        parse_automaton(good + "mystery: 1\n")
    # typing violations surface as format errors on load
    bad = (
        "%HXA 1\nkind: GHBFA\nalphabet: a\nforward-states: f\n"
        "backward-states: b\nstart: f\nfinal: f\nrule: f a -> b\n"
    )
    with pytest.raises(FormatError) as info:
        parse_automaton(bad)
    assert str(info.value) == "invalid automaton: forward rule f a -> b targets backward state"
    cases = [
        (good.replace("start: f\n", ""), "expected 'start:' on line 6"),
        (good.replace("start: f\n", "start: f b\n"), "start line must name exactly one state"),
        (good + "border: f b\n", "bad border line: 'border: f b'"),
        (good + "direction: X:R0\n", "bad direction code 'X:R0'"),
        (good + "direction: B:R9\n", "unknown symmetry op 'R9'"),
        (good + "direction: R:R0\n", "mode kind returning does not match automaton kind"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as info:
            parse_automaton(text)
        assert str(info.value).startswith(message), (message, str(info.value))
    # blank lines inside and after the rule section are skipped
    lines = good.splitlines()
    spaced = "\n".join(lines[:8] + [""] + lines[8:] + ["", "", ""]) + "\n"
    assert parse_automaton(spaced) == (m_all(), None)


def test_run_consumption_length_property(rng):
    from hexscan.langtools import enumerate_pictures

    bound = SizeBound.max_side(2)
    pics = [p for p in enumerate_pictures(["a"], bound)]
    a = m_all(alphabet=("a",))
    for p in pics:
        for mode in (canonical_mode(BOUSTROPHEDON), DirectionMode(BOUSTROPHEDON, "r2")):
            _, trace = run(a, p, mode, trace=True)
            plan = scan_lines(p.size, mode)
            assert len(trace.steps) == cell_count(p.size) + len(plan.lines)
