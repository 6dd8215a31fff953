"""Automaton-to-automaton constructions.

All constructions here rebuild an automaton so that its canonical-mode
language relates to the input's in a stated way:

  * hbfa_to_hrfa: boustrophedon -> returning, same language.
  * mirror_within_lines: returning -> returning, r0-image (each scan line
    read in reverse).
  * mirror_line_order: returning -> returning, r3-image (scan lines read in
    reverse order, orientation within lines kept).
  * point_reflection: returning -> returning, R3-image (the 180-degree
    rotation), by reversing the machine as an NFA in |Q| + 2 states.
  * family_normalizer: dispatch over the four ops {R0, r0, r3, R3} that fix
    the scan-line family.

R3 reverses the whole consumption word, so it needs no simulation: the
reversed NFA reads it.  That reversal is `automata._reversal`, defined once
for either kind: the exact oracle reads side 0 of an r3 or R3 question
through it too.  r3 is the reversal after the within-line mirror.
hbfa_to_hrfa and mirror_within_lines are one builder, _reverse_lines, that
reads some lines against the input machine's processing order: the lines
the boustrophedon machine reads in backward states, or every line.  It uses
the classical mirror-image technique: guess the state at the far end and
step the rule relation backwards, verifying the near end on the border
read.  That needs three registers per reversed line (the entry state to
verify, the running backward-simulation state, and the guessed exit whose
border successor seeds the next line), so reversed lines use state triples;
lines read in the input's own order use one state per input state.
Cubic growth is needed in the worst case for the conversion: acceptance
criterion 12 (`test_criterion_12_conversion_lower_bound_certificate`) builds
boustrophedon machines with k states per partition whose canonical
returning linearizations carry k^3 fooling pairs, so every equivalent
canonical-mode returning automaton has at least k^3 states (729 at k = 9,
where the conversion builds 1 + k + k^3 = 739).

Output states are named by the positions of input states in sorted order,
never by pasting input names, so no two output states share a name.
"""

from __future__ import annotations

from .automata import HexAutomaton, _reversal, automaton
from .scan import BOUSTROPHEDON, RETURNING


def _reverse_lines(a: HexAutomaton, direct, reversed_) -> HexAutomaton:
    """Returning automaton reading each line as `a` does, some backwards.

    A line entered in a `direct` state is read as-is, in one state 1[i] per
    input state.  A line entered in a `reversed_` state is simulated
    backwards in triples 3[e|y|h] over `reversed_`: entry state e to verify,
    running state y seeded at the guessed exit h.  Each cell read steps the
    rule relation backwards, and the border read fires h's border rules
    only once y has arrived at e.  A fresh start 0 takes the first cell read
    as the states the first line is entered in would.  Value rules must stay
    inside the part they start in.  i, e, y and h are positions in the
    sorted input states.  States: 1 + |direct| + |reversed_|^3.
    """
    pos = {q: i for i, q in enumerate(sorted(a.states))}
    one = {q: f"1[{pos[q]}]" for q in direct}
    three = {(e, y, h): f"3[{pos[e]}|{pos[y]}|{pos[h]}]"
             for e in reversed_ for y in reversed_ for h in reversed_}

    def entered(q):
        return [one[q]] if q in one else [three[q, h, h] for h in reversed_]

    value_rules = set()
    for p, sym, q in a.value_rules:
        if p in one:
            value_rules.add((one[p], sym, one[q]))
        else:
            value_rules.update((three[e, q, h], sym, three[e, p, h])
                               for e in reversed_ for h in reversed_)
    border_rules = set()
    for h, nxt in a.border_rules:
        ends = [one[h]] if h in one else [three[e, e, h] for e in reversed_]
        border_rules.update((end, t) for end in ends for t in entered(nxt))
    first = set(entered(a.start))
    value_rules.update([("0", sym, q) for p, sym, q in value_rules if p in first])
    finals = [one[f] for f in a.finals if f in one]
    finals += [s for (e, _, _), s in three.items() if e in a.finals]
    states = ["0", *one.values(), *three.values()]
    return automaton(RETURNING, states, [], a.alphabet, value_rules, border_rules, "0", finals)


def hbfa_to_hrfa(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton accepting exactly the input's canonical language.

    Lines the boustrophedon machine reads in forward states are read
    directly; lines it reads in reverse, in backward states, are simulated
    backwards.  Rules are typed, so no line changes partition.  States:
    1 + |F| + |B|^3.
    """
    if a.kind != BOUSTROPHEDON:
        raise ValueError("input must be a boustrophedon automaton")
    return _reverse_lines(a, a.forward_states, a.backward_states)


def mirror_within_lines(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton whose language is the r0-image of the input's.

    Every line is simulated backwards.  States: 1 + |Q|^3.
    """
    if a.kind != RETURNING:
        raise ValueError("input must be a returning automaton")
    return _reverse_lines(a, frozenset(), a.states)


def point_reflection(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton whose language is the R3-image of the input's.

    The input reads L1 # L2 # ... # LK #; the 180-degree rotation reads
    LK^R # ... # L1^R #, the reversed word with its leading border moved to
    the end.  So the input is reversed as an NFA (`automata._reversal`,
    which the exact oracle also reads reversed-order questions through).
    States: |Q| + 2.
    """
    if a.kind != RETURNING:
        raise ValueError("input must be a returning automaton")
    return _reversal(a)


def mirror_line_order(a: HexAutomaton) -> HexAutomaton:
    """Returning automaton whose language is the r3-image of the input's.

    r3 is the rotation R3 after the within-line mirror r0, so this is the
    point reflection of `mirror_within_lines(a)`.  States: |Q|^3 + 3.
    """
    return point_reflection(mirror_within_lines(a))


NORMALIZER_TARGETS = ("R0", "r0", "r3", "R3")


def family_normalizer(a: HexAutomaton, target: str) -> HexAutomaton:
    """Automaton whose canonical language is the target-image of the input's.

    Supported targets are the four ops fixing the scan-line family: identity,
    within-line mirror, line-order mirror, and their composition (the
    180-degree rotation).
    """
    if target == "R0":
        return a
    if target == "r0":
        return mirror_within_lines(a)
    if target == "r3":
        return mirror_line_order(a)
    if target == "R3":
        return point_reflection(a)
    raise ValueError(f"unsupported normalizer target {target!r}; expected one of {NORMALIZER_TARGETS}")
