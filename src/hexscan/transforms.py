"""Automaton-to-automaton constructions.

All constructions here rebuild an automaton so that its canonical-mode
language relates to the input's in a stated way:

  * hbfa_to_hrfa: boustrophedon -> returning, same language.
  * mirror_within_lines: returning -> returning, r0-image (each scan line
    read in reverse).
  * mirror_line_order: returning -> returning, r3-image (scan lines read in
    reverse order, orientation within lines kept).
  * family_normalizer: dispatch over the four ops {R0, r0, r3, R3} that fix
    the scan-line family.

The reversed-line simulations use the classical mirror-image technique: a
line read against the machine's processing order is checked by guessing the
state at the far end and stepping the rule relation backwards, verifying the
near end on the border read.  Carrying that off needs three registers per
reversed line (the entry state to verify, the running backward-simulation
state, and the guessed exit whose border successor seeds the next line), so
reversed-line phases use state triples.  Cubic growth is needed in the worst
case: acceptance criterion 12
(`test_criterion_12_conversion_lower_bound_certificate`) builds boustrophedon
machines with n/2 states per partition whose canonical returning
linearizations carry (n/2)^3 fooling pairs, so every equivalent canonical-mode
returning automaton has at least (n/2)^3 states (729 > 2*18^2+1 at n = 18).
"""

from __future__ import annotations

from .automata import HexAutomaton, require_valid
from .scan import BOUSTROPHEDON, RETURNING


def expected_output_states(construction: str, input_states: int) -> int:
    """State count each construction produces for a given input size."""
    n = input_states
    if construction == "hbfa-to-hrfa":
        return n**3 + n**2 + 1
    if construction == "mirror-within-lines":
        return n**3 + 1
    if construction == "mirror-line-order":
        return n**3 + n**2 + 1
    raise ValueError(f"unknown construction {construction!r}")


def _returning(
    construction: str, a: HexAutomaton, states: set[str], value_rules, border_rules,
    start: str, finals: set[str],
) -> HexAutomaton:
    """The construction's output, refused if two of its state names coincide.

    Output names paste input names together between `|` separators, so an
    input name containing `|` can render two different states alike.
    """
    expected = expected_output_states(construction, len(a.states))
    if len(states) != expected:
        raise ValueError(
            f"{construction}: {expected} states render as only {len(states)} distinct "
            "names; rename the input states that contain '|'"
        )
    return HexAutomaton(
        kind=RETURNING,
        forward_states=frozenset(states),
        backward_states=frozenset(),
        alphabet=a.alphabet,
        value_rules=frozenset(value_rules),
        border_rules=frozenset(border_rules),
        start=start,
        finals=frozenset(finals),
    )


def _p1(x: str, g: str) -> str:
    return f"1[{x}|{g}]"


def _p2(a: str, y: str, h: str) -> str:
    return f"2[{a}|{y}|{h}]"


def hbfa_to_hrfa(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton accepting exactly the input's canonical language.

    Odd lines (which both machines read in plan orientation) are simulated
    directly in pair states (running state, guessed line-end state); the
    border rule fires only when the guess was met.  Even lines, which the
    boustrophedon machine reads in reverse, are simulated backwards in
    triple states (entry state to verify, running state, guessed exit): the
    running state is seeded at the guessed exit, each cell read steps the
    rule relation backwards, and the border read checks that the simulation
    arrived at the entry state before chaining through the exit's border
    rule.  States: 1 start + |Q|^2 pairs + |Q|^3 triples.
    """
    require_valid(a)
    if a.kind != BOUSTROPHEDON:
        raise ValueError("input must be a boustrophedon automaton")
    states = sorted(a.states)
    start = "S0"
    value_rules: set[tuple[str, str, str]] = set()
    border_rules: set[tuple[str, str]] = set()

    for p, sym, q in a.value_rules:
        if p == a.start:
            for g in states:
                value_rules.add((start, sym, _p1(q, g)))
        for g in states:
            value_rules.add((_p1(p, g), sym, _p1(q, g)))
        # backward step: moving to p after reading sym is legal when the
        # machine could have moved p -> q reading sym in its own order
        for entry in states:
            for h in states:
                value_rules.add((_p2(entry, q, h), sym, _p2(entry, p, h)))

    for g, q1 in a.border_rules:
        for h in states:
            border_rules.add((_p1(g, g), _p2(q1, h, h)))
    for h, x in a.border_rules:
        for entry in states:
            for g in states:
                border_rules.add((_p2(entry, entry, h), _p1(x, g)))

    all_states = {start}
    all_states.update(_p1(x, g) for x in states for g in states)
    all_states.update(_p2(e, y, h) for e in states for y in states for h in states)
    finals = {_p2(e, y, h) for e in a.finals for y in states for h in states}
    finals.update(_p1(x, g) for x in a.finals for g in states)

    return _returning("hbfa-to-hrfa", a, all_states, value_rules, border_rules, start, finals)


def _t(entry: str, y: str, h: str) -> str:
    return f"t[{entry}|{y}|{h}]"


def mirror_within_lines(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton whose language is the r0-image of the input's.

    Every line is read against the input machine's order and simulated
    backwards in triples (line-entry state, running state, guessed exit).
    States: 1 start + |Q|^3.
    """
    require_valid(a)
    if a.kind != RETURNING:
        raise ValueError("input must be a returning automaton")
    states = sorted(a.states)
    start = "W0"
    value_rules: set[tuple[str, str, str]] = set()
    border_rules: set[tuple[str, str]] = set()

    for p, sym, q in a.value_rules:
        value_rules.add((start, sym, _t(a.start, p, q)))
        for entry in states:
            for h in states:
                value_rules.add((_t(entry, q, h), sym, _t(entry, p, h)))

    for h, nxt in a.border_rules:
        for entry in states:
            for h2 in states:
                border_rules.add((_t(entry, entry, h), _t(nxt, h2, h2)))

    all_states = {start}
    all_states.update(_t(e, y, h) for e in states for y in states for h in states)
    finals = {_t(e, y, h) for e in a.finals for y in states for h in states}

    return _returning("mirror-within-lines", a, all_states, value_rules, border_rules, start, finals)


def _u(t: str, y: str) -> str:
    return f"u[{t}|{y}]"


def _v(t: str, y: str, pend: str) -> str:
    return f"v[{t}|{y}|{pend}]"


def mirror_line_order(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton whose language is the r3-image of the input's.

    The input machine processes lines in the opposite order, so each line's
    run segment is simulated forward from a guessed entry state, and the
    guesses are chained: when a line ends, the previous line's guessed entry
    must be a border successor of this line's final state.  The last pending
    guess must be the input's start state, which the final states encode.
    States: 1 start + |Q|^2 pairs (first line) + |Q|^3 triples.
    """
    require_valid(a)
    if a.kind != RETURNING:
        raise ValueError("input must be a returning automaton")
    states = sorted(a.states)
    start = "V0"
    value_rules: set[tuple[str, str, str]] = set()
    border_rules: set[tuple[str, str]] = set()

    for p, sym, q in a.value_rules:
        value_rules.add((start, sym, _u(p, q)))
        for t in states:
            value_rules.add((_u(t, p), sym, _u(t, q)))
            for pend in states:
                value_rules.add((_v(t, p, pend), sym, _v(t, q, pend)))

    # first line's border: the input machine ends its run here, so its final
    # border transition must reach a final state
    for y, f in a.border_rules:
        if f in a.finals:
            for t in states:
                for t2 in states:
                    border_rules.add((_u(t, y), _v(t2, t2, t)))
    # later lines: discharge the previous line's entry claim
    for y, pend in a.border_rules:
        for t in states:
            for t2 in states:
                border_rules.add((_v(t, y, pend), _v(t2, t2, t)))

    all_states = {start}
    all_states.update(_u(t, y) for t in states for y in states)
    all_states.update(_v(t, y, p) for t in states for y in states for p in states)
    finals = {_v(t, y, a.start) for t in states for y in states}

    return _returning("mirror-line-order", a, all_states, value_rules, border_rules, start, finals)


NORMALIZER_TARGETS = ("R0", "r0", "r3", "R3")


def family_normalizer(a: HexAutomaton, target: str) -> HexAutomaton:
    """Automaton whose canonical language is the target-image of the input's.

    Supported targets are the four ops fixing the scan-line family: identity,
    within-line mirror, line-order mirror, and their composition (the
    180-degree rotation).
    """
    if target == "R0":
        require_valid(a)
        return a
    if target == "r0":
        return mirror_within_lines(a)
    if target == "r3":
        return mirror_line_order(a)
    if target == "R3":
        return mirror_line_order(mirror_within_lines(a))
    raise ValueError(f"unsupported normalizer target {target!r}; expected one of {NORMALIZER_TARGETS}")
