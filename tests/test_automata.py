import random

import pytest

from hexscan import (
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    ALL_MODES,
    RETURNING,
    apply_op,
    automaton,
    canonical_mode,
    cell_count,
    determinize,
    is_deterministic,
    make_uniform,
    modes_for_kind,
    parse_automaton,
    run,
    run_canonical,
    scan_lines,
    serialize_automaton,
    validate,
)
from hexscan.automata import InvalidAutomatonError
from hexscan.hexgrid import Cell, FormatError
from hexscan.langtools import SizeBound, bounded_equivalent

from conftest import m_all, m_none, m_parity, m_plus_named, random_ghbfa, random_ghrfa


def test_validate_ok():
    assert validate(m_all()) == []
    assert validate(m_parity()) == []


def test_validate_forward_rule_typing():
    a = automaton(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                  [("f", "a", "b")], [("f", "b"), ("b", "f")], "f", ["f"])
    issues = validate(a)
    assert any("forward rule" in d and "targets backward state" in d for d in issues)


def test_validate_border_rule_typing():
    a = automaton(BOUSTROPHEDON, ["f", "g"], ["b"], ["a"],
                  [("f", "a", "f")], [("f", "g")], "f", ["f"])
    issues = validate(a)
    assert any("border rule" in d for d in issues)


def test_validate_misc_issues():
    a = automaton(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                  [("f", "z", "f")], [], "nope", ["ghost"])
    issues = validate(a)
    assert any("start state" in d for d in issues)
    assert any("final state" in d for d in issues)
    assert any("outside alphabet" in d for d in issues)


def test_returning_rules_untyped():
    # returning machines may chain any states through borders
    a = automaton(RETURNING, ["p", "q"], [], ["a"],
                  [("p", "a", "q"), ("q", "a", "p")], [("q", "p"), ("p", "p")],
                  "p", ["p"])
    assert validate(a) == []


def test_is_deterministic():
    assert is_deterministic(m_all())
    nd = automaton(BOUSTROPHEDON, ["f", "g"], ["b"], ["a"],
                   [("f", "a", "f"), ("f", "a", "g")], [("f", "b"), ("b", "f")],
                   "f", ["f"])
    assert not is_deterministic(nd)
    empty = automaton(BOUSTROPHEDON, ["f"], ["b"], ["a"], [], [], "f", [])
    assert is_deterministic(empty)
    # duplicate border targets also break determinism
    ndb = automaton(BOUSTROPHEDON, ["f"], ["b", "c"], ["a"],
                    [("f", "a", "f")], [("f", "b"), ("f", "c")], "f", ["f"])
    assert not is_deterministic(ndb)


def test_run_m_all_and_m_none():
    p = make_uniform(HexSize(2, 2, 2), "a")
    assert run_canonical(m_all(), p) is True
    assert run_canonical(m_none(), p) is False
    assert any(run(m_all(), p, m) for m in modes_for_kind(BOUSTROPHEDON))
    assert not any(run(m_none(), p, m) for m in modes_for_kind(BOUSTROPHEDON))


def test_run_parity():
    # 19 cells is odd, 4 cells is even
    assert run_canonical(m_parity(), make_uniform(HexSize(3, 3, 3), "a")) is False
    assert run_canonical(m_parity(), make_uniform(HexSize(2, 2, 1), "a")) is True


def test_run_rejects_foreign_symbols_and_kind_mismatch():
    p = make_uniform(HexSize(1, 1, 1), "z")
    with pytest.raises(ValueError):
        run_canonical(m_all(), p)
    with pytest.raises(ValueError):
        run(m_all(), make_uniform(HexSize(1, 1, 1), "a"), canonical_mode(RETURNING))


def test_run_requires_valid_automaton():
    broken = automaton(BOUSTROPHEDON, ["f"], ["b"], ["a"],
                       [("f", "a", "b")], [], "f", ["f"])
    # validation runs once per automaton, but every call still raises
    for _ in range(3):
        with pytest.raises(InvalidAutomatonError):
            run_canonical(broken, make_uniform(HexSize(1, 1, 1), "a"))
    with pytest.raises(InvalidAutomatonError):
        determinize(broken)


def test_indexed_automaton_is_collected_with_its_last_reference():
    import gc
    import weakref

    a = m_parity(alphabet=("a", "b"))
    assert run_canonical(a, make_uniform(HexSize(1, 2, 2), "a"))
    alive = weakref.ref(a)
    del a
    gc.collect()
    assert alive() is None


def test_trace_step_count_and_flags():
    p = make_uniform(HexSize(2, 2, 2), "a")
    accepted, trace = run_canonical(m_all(), p, trace=True)
    assert accepted
    plan = scan_lines(p.size, canonical_mode(BOUSTROPHEDON))
    assert len(trace.steps) == cell_count(p.size) + plan.line_count
    flags = [s.mode_flag for s in trace.steps]
    # lines of length 2,3,2 plus one border read each: f f f | b b b b | f f f
    assert flags == ["f"] * 3 + ["b"] * 4 + ["f"] * 3
    borders = [s for s in trace.steps if s.cell is None]
    assert len(borders) == plan.line_count
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
    accepted, trace = run_canonical(r, p, trace=True)
    assert accepted
    assert all(s.mode_flag == "f" for s in trace.steps)


def test_boustrophedon_consumes_odd_lines_reversed():
    # mark the cells of the middle line; the backward pass must read them
    # bottom to top
    p = make_uniform(HexSize(2, 2, 2), "a")
    plan = scan_lines(p.size, canonical_mode(BOUSTROPHEDON))
    mid = plan.lines[1]
    symbols = {}
    for i, c in enumerate(mid):
        symbols[c] = f"s{i}"
        p = p.set(c, f"s{i}")
    a = m_all(alphabet=("a", "s0", "s1", "s2"))
    _, trace = run_canonical(a, p, trace=True)
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
    p = make_uniform(HexSize(2, 2, 2), "a").set(Cell(1, -1), "b")
    results = {mode.code: run(a, p, mode) for mode in modes_for_kind(BOUSTROPHEDON)}
    assert results["B:R0"] is True
    assert any(results.values()) and not all(results.values())
    assert any(run(a, p, m) for m in modes_for_kind(a.kind))


def test_direction_coherence_small(rng):
    bound = SizeBound.max_side(2)
    from hexscan.langtools import enumerate_pictures

    pics = list(enumerate_pictures(["a", "b"], bound))[:40]
    for _ in range(5):
        a = random_ghbfa(rng)
        for mode in modes_for_kind(BOUSTROPHEDON):
            for p in pics:
                assert run(a, p, mode) == run_canonical(a, apply_op(mode.element, p))


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


def test_determinize_refuses_colliding_subset_names():
    a = m_plus_named()
    assert not run_canonical(a, make_uniform(HexSize(1, 1, 1), "b"))
    # {x,y} and {x+y} would both be named {x+y}, merging their rules
    with pytest.raises(ValueError, match=r"\('x', 'y'\) and \('x\+y',\).*'\{x\+y\}'"):
        determinize(a)


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
    with pytest.raises(FormatError):
        parse_automaton(bad)


def test_run_consumption_length_property(rng):
    from hexscan.langtools import enumerate_pictures

    bound = SizeBound.max_side(2)
    pics = [p for p in enumerate_pictures(["a"], bound)]
    a = m_all(alphabet=("a",))
    for p in pics:
        for mode in (canonical_mode(BOUSTROPHEDON), DirectionMode(BOUSTROPHEDON, "r2")):
            _, trace = run(a, p, mode, trace=True)
            plan = scan_lines(p.size, mode)
            assert len(trace.steps) == cell_count(p.size) + plan.line_count
