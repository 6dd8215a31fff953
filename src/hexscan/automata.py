"""Hexagonal scanning automata: validation, execution, determinization, I/O.

An automaton is an 8-tuple-style record: disjoint forward/backward state
sets, an alphabet, value rules (state, symbol, state), border rules
(state, state) read on `#`, a start state and final states.

Boustrophedon machines alternate line orientation and are strictly typed:
value rules stay inside one partition and border rules cross between the
partitions.  Returning machines rescan every line in the same orientation;
their backward set may be empty and their rules are untyped.  Every
`HexAutomaton` is well formed: building one runs `validate` and raises
`InvalidAutomatonError` on any issue, so nothing that takes a machine checks
it again.

A run reads one word, each scan line followed by the border symbol:
`L1 # L2 # ... LK #`.  A border rule is a rule on `#`, so the rule table has
one row per symbol, `#` included, and every read steps its symbol's row.  A
run accepts iff a final state is reachable after the last `#`.
Nondeterminism is resolved by frontier-set simulation, exact because the
word never depends on the data, so a run is subset construction done
lazily: each run, traced or not, builds a table of the frontiers it meets,
one node per subset, each (frontier, symbol) step computed once per call,
and frees it when it returns, so a long-lived machine does not grow with
its runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple

from .hexgrid import BORDER_SYMBOL, Cell, FormatError, HexPicture, RESERVED_SYMBOLS
from .scan import (
    BOUSTROPHEDON,
    DirectionMode,
    RETURNING,
    canonical_mode,
    parse_direction,
    scan_lines,
)

ValueRule = tuple[str, str, str]
BorderRule = tuple[str, str]


class InvalidAutomatonError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class HexAutomaton:
    kind: str
    forward_states: frozenset[str]
    backward_states: frozenset[str]
    alphabet: frozenset[str]
    value_rules: frozenset[ValueRule]
    border_rules: frozenset[BorderRule]
    start: str
    finals: frozenset[str]

    def __post_init__(self):
        diagnostics = validate(self)
        if diagnostics:
            raise InvalidAutomatonError(diagnostics)

    @property
    def states(self) -> frozenset[str]:
        return self.forward_states | self.backward_states

    # Derived once per automaton and kept in its instance dict, so it is
    # freed with it; the fields are immutable, so it cannot go stale.
    @cached_property
    def _indexed(self) -> "IndexedAutomaton":
        names = tuple(sorted(self.states))
        index = {name: i for i, name in enumerate(names)}
        value = {sym: [0] * len(names) for sym in (*self.alphabet, BORDER_SYMBOL)}
        borders = ((p, BORDER_SYMBOL, q) for p, q in self.border_rules)
        for p, sym, q in chain(self.value_rules, borders):
            value[sym][index[p]] |= 1 << index[q]
        finals_mask = 0
        for f in self.finals:
            finals_mask |= 1 << index[f]
        return IndexedAutomaton(
            names,
            {sym: tuple(row) for sym, row in value.items()},
            1 << index[self.start],
            finals_mask,
        )


def automaton(
    kind: str,
    forward_states,
    backward_states,
    alphabet,
    value_rules,
    border_rules,
    start: str,
    finals,
) -> HexAutomaton:
    """Convenience constructor accepting any iterables; raises like `HexAutomaton`."""
    return HexAutomaton(
        kind=kind,
        forward_states=frozenset(forward_states),
        backward_states=frozenset(backward_states),
        alphabet=frozenset(alphabet),
        value_rules=frozenset(tuple(r) for r in value_rules),
        border_rules=frozenset(tuple(r) for r in border_rules),
        start=start,
        finals=frozenset(finals),
    )


def validate(a: HexAutomaton) -> list[str]:
    """One line per issue of the automaton; `HexAutomaton` builds only if there is none."""
    out: list[str] = []
    if a.kind not in (BOUSTROPHEDON, RETURNING):
        out.append(f"unknown kind {a.kind!r}")
    overlap = a.forward_states & a.backward_states
    if overlap:
        out.append(f"states in both partitions: {sorted(overlap)}")
    states = a.forward_states | a.backward_states
    if a.start not in a.forward_states:
        out.append(f"start state {a.start!r} not a forward state")
    for f in sorted(a.finals - states):
        out.append(f"final state {f!r} unknown")
    bad_sym = sorted(a.alphabet & RESERVED_SYMBOLS)
    if bad_sym:
        out.append(f"alphabet contains reserved symbols {bad_sym}")
    # the rules are checked unsorted; only those with an issue are sorted,
    # stably, so each rule's messages keep the order they are checked in
    value_issues: list[tuple[ValueRule, str]] = []
    for rule in a.value_rules:
        p, sym, q = rule
        if p not in states or q not in states:
            value_issues.append((rule, f"value rule {p} {sym} -> {q} uses unknown state"))
            continue
        if sym not in a.alphabet:
            value_issues.append((rule, f"value rule {p} {sym} -> {q} uses symbol outside alphabet"))
        if a.kind == BOUSTROPHEDON:
            if p in a.forward_states and q not in a.forward_states:
                value_issues.append((rule, f"forward rule {p} {sym} -> {q} targets backward state"))
            if p in a.backward_states and q not in a.backward_states:
                value_issues.append((rule, f"backward rule {p} {sym} -> {q} targets forward state"))
    border_issues: list[tuple[BorderRule, str]] = []
    for rule in a.border_rules:
        p, q = rule
        if p not in states or q not in states:
            border_issues.append((rule, f"border rule {p} -> {q} uses unknown state"))
            continue
        if a.kind == BOUSTROPHEDON:
            if p in a.forward_states and q not in a.backward_states:
                border_issues.append(
                    (rule, f"border rule {p} -> {q} from forward state must target backward state"))
            if p in a.backward_states and q not in a.forward_states:
                border_issues.append(
                    (rule, f"border rule {p} -> {q} from backward state must target forward state"))
    for issues in (value_issues, border_issues):
        out += [message for _, message in sorted(issues, key=itemgetter(0))]
    return out


def _check_question(a: HexAutomaton, d: DirectionMode, symbols: Iterable[str]) -> None:
    """Raise unless `d` is of `a`'s kind and `symbols` are in its alphabet."""
    if d.kind != a.kind:
        raise ValueError(f"mode kind {d.kind} does not match automaton kind {a.kind}")
    missing = frozenset(symbols) - a.alphabet
    if missing:
        raise ValueError(f"symbols {sorted(missing)} outside automaton alphabet")


class IndexedAutomaton(NamedTuple):
    """Rule tables over bit-indexed states; frontiers are int bitmasks.

    `value[symbol][p]` is the successor mask of state p on `symbol`; the
    row of `#` holds the border rules.
    """

    names: tuple[str, ...]
    value: dict[str, tuple[int, ...]]
    start_mask: int
    finals_mask: int

    def to_states(self, mask: int) -> tuple[str, ...]:
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(self.names[low.bit_length() - 1])
        return tuple(sorted(out))


def _union(rows: tuple[int, ...], mask: int) -> int:
    """Union of rows[p] over the states p in mask: one step of a frontier."""
    acc = 0
    while mask:
        low = mask & -mask
        mask ^= low
        acc |= rows[low.bit_length() - 1]
    return acc


class _Frontier(dict):
    """One frontier a run has met: each symbol read maps to the next frontier.

    `nodes` files every frontier of the run's table, by mask, and is shared
    by all of them.  A symbol not read here before is stepped once, by
    `_union` over its row of `value`, and its successor filed, so a read
    whose step is known is one C-level dictionary lookup.
    """

    __slots__ = ("mask", "value", "nodes")

    def __init__(self, mask: int, value: dict[str, tuple[int, ...]], nodes: dict[int, "_Frontier"]):
        self.mask = mask
        self.value = value
        self.nodes = nodes

    def __missing__(self, symbol: str) -> "_Frontier":
        mask = _union(self.value[symbol], self.mask)
        nxt = self.nodes.get(mask)
        if nxt is None:
            nxt = self.nodes[mask] = _Frontier(mask, self.value, self.nodes)
        self[symbol] = nxt
        return nxt


@dataclass(frozen=True)
class TraceStep:
    """One consumed symbol: a cell read or a border read."""

    position: int
    symbol: str
    cell: Cell | None
    mode_flag: str
    states_after: tuple[str, ...]


@dataclass(frozen=True)
class RunTrace:
    steps: tuple[TraceStep, ...]


def run(
    a: HexAutomaton,
    picture: HexPicture,
    mode: DirectionMode | None = None,
    trace: bool = False,
):
    """Run the automaton over a picture; returns bool, or (bool, RunTrace).

    The run reads the plan's word: each line in reading order, `b` flagged
    where the plan reads it backwards, then `#`; the plan's `reader` builds
    it from the picture's row-major word, and every read steps its symbol's
    row.  The word is walked through a table of the frontiers met
    (`_Frontier`): subset construction done lazily, each (frontier, symbol)
    step computed once per call.  The table holds at most the subsets met,
    the empty one included, and is freed when the call returns.  An emptied
    frontier is read to the end of the word, where it rejects.  A trace
    keeps the node reached after each read and names its states.
    """
    if mode is None:
        mode = canonical_mode(a.kind)
    _check_question(a, mode, picture.symbols)
    plan = scan_lines(picture.size, mode)
    word = plan.reader(picture.row_major_word)
    idx = a._indexed
    nodes: dict[int, _Frontier] = {}
    start = nodes[idx.start_mask] = _Frontier(idx.start_mask, idx.value, nodes)
    if trace:
        # the frontier after each read, in order; `accumulate` yields the start first
        reached = [node.mask for node in accumulate(word, getitem, initial=start)][1:]
        end = reached[-1]
    else:
        end = reduce(getitem, word, start).mask
    # the steps and `nodes` make cycles; cut them so the table goes now, not
    # at the next collection
    for node in nodes.values():
        node.clear()
    nodes.clear()
    accepted = bool(end & idx.finals_mask)
    if not trace:
        return accepted
    # each line's cells, then its `#`, which reads no cell
    reads = ((cell, "b" if backward else "f")
             for line, backward in zip(plan.reading, plan.backward) for cell in (*line, None))
    steps = (TraceStep(i, symbol, cell, flag, idx.to_states(mask))
             for i, (symbol, (cell, flag), mask) in enumerate(zip(word, reads, reached)))
    return accepted, RunTrace(tuple(steps))


def determinize(a: HexAutomaton) -> HexAutomaton:
    """Subset construction, applied inside each partition.

    Every row of the rule table is stepped, `#` included.  A boustrophedon
    subset changes partition on `#` only, so rule typing survives; the steps
    split into value and border rules only in the output.  Only nonempty
    reachable subsets are kept; the result is deterministic and accepts the
    same pictures under every direction mode.  A subset is named by the
    positions of its members in the input's sorted state names, joined with
    `+` in braces (`{0+2}`), so no two subsets share a name.
    """
    idx = a._indexed
    flips = a.kind == BOUSTROPHEDON
    is_forward = {idx.start_mask: True}  # every reachable subset, by partition
    steps: list[tuple[int, str, int]] = []
    pending = [idx.start_mask]
    while pending:
        subset = pending.pop()
        for sym, rows in idx.value.items():
            nxt = _union(rows, subset)
            if nxt:
                steps.append((subset, sym, nxt))
                if nxt not in is_forward:
                    is_forward[nxt] = is_forward[subset] != (flips and sym == BORDER_SYMBOL)
                    pending.append(nxt)
    names = {
        subset: "{" + "+".join(str(i) for i in range(subset.bit_length()) if subset >> i & 1) + "}"
        for subset in is_forward
    }
    return HexAutomaton(
        kind=a.kind,
        forward_states=frozenset(names[s] for s, fwd in is_forward.items() if fwd),
        backward_states=frozenset(names[s] for s, fwd in is_forward.items() if not fwd),
        alphabet=a.alphabet,
        value_rules=frozenset((names[p], s, names[q]) for p, s, q in steps if s != BORDER_SYMBOL),
        border_rules=frozenset((names[p], names[q]) for p, s, q in steps if s == BORDER_SYMBOL),
        start=names[idx.start_mask],
        finals=frozenset(names[s] for s in is_forward if s & idx.finals_mask),
    )


def _reversal(a: HexAutomaton) -> HexAutomaton:
    """`a` reversed as an NFA, for either kind: a returning machine in |Q| + 2 states.

    Where `a` accepts L1 # ... # LK #, this accepts LK^R # ... # L1^R # and
    no other word of nonempty lines.  Every rule is turned around (input
    state i in sorted order is x[i]), a fresh start x0 takes the reversed
    last cell read of a run that a border rule then carries into a final
    state, and the renamed input start enters the fresh final xF on `#`.
    xF has no successors, so one entered at an inner `#` dies.
    """
    x = {q: f"x[{i}]" for i, q in enumerate(sorted(a.states))}
    last = {y for y, f in a.border_rules if f in a.finals}
    value_rules = {(x[q], sym, x[p]) for p, sym, q in a.value_rules}
    value_rules.update(("x0", sym, x[p]) for p, sym, q in a.value_rules if q in last)
    border_rules = {(x[q], x[p]) for p, q in a.border_rules}
    border_rules.add((x[a.start], "xF"))
    states = ["x0", "xF", *x.values()]
    return automaton(RETURNING, states, [], a.alphabet, value_rules, border_rules, "x0", ["xF"])


# --- text format -----------------------------------------------------------
#
# %HXA 1
# kind: GHBFA|GHRFA
# alphabet: a b ...
# forward-states: ...
# backward-states: ...          (may be empty)
# start: q
# final: q ...                  (may be empty)
# rule: q a -> p                (zero or more)
# border: q -> p                (zero or more)
# direction: B:R0               (optional)

HXA_HEADER = "%HXA 1"
_KIND_NAMES = {"GHBFA": BOUSTROPHEDON, "GHRFA": RETURNING}
_NAMES_KIND = {v: k for k, v in _KIND_NAMES.items()}


def parse_automaton(text: str) -> tuple[HexAutomaton, DirectionMode | None]:
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if not lines or lines[0] != HXA_HEADER:
        raise FormatError(f"expected header {HXA_HEADER!r}")

    fields: dict[str, str] = {}
    order = ["kind", "alphabet", "forward-states", "backward-states", "start", "final"]
    idx = 1
    for key in order:
        if idx >= len(lines) or not lines[idx].startswith(key + ":"):
            raise FormatError(f"expected '{key}:' on line {idx + 1}")
        fields[key] = lines[idx][len(key) + 1:].strip()
        idx += 1

    kind_name = fields["kind"]
    if kind_name not in _KIND_NAMES:
        raise FormatError(f"kind must be GHBFA or GHRFA, got {kind_name!r}")
    alphabet = fields["alphabet"].split()
    forward = fields["forward-states"].split()
    backward = fields["backward-states"].split()
    start = fields["start"]
    if not start or len(start.split()) != 1:
        raise FormatError("start line must name exactly one state")
    finals = fields["final"].split()

    value_rules: list[ValueRule] = []
    border_rules: list[BorderRule] = []
    direction: DirectionMode | None = None
    for line in lines[idx:]:
        if not line:
            continue
        if line.startswith("rule:"):
            parts = line[len("rule:"):].split()
            if len(parts) != 4 or parts[2] != "->":
                raise FormatError(f"bad rule line: {line!r}")
            value_rules.append((parts[0], parts[1], parts[3]))
        elif line.startswith("border:"):
            parts = line[len("border:"):].split()
            if len(parts) != 3 or parts[1] != "->":
                raise FormatError(f"bad border line: {line!r}")
            border_rules.append((parts[0], parts[2]))
        elif line.startswith("direction:"):
            try:
                direction = parse_direction(line[len("direction:"):].strip())
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        else:
            raise FormatError(f"unrecognized line: {line!r}")

    try:
        a = automaton(
            _KIND_NAMES[kind_name], forward, backward, alphabet,
            value_rules, border_rules, start, finals,
        )
    except InvalidAutomatonError as exc:
        raise FormatError(f"invalid automaton: {exc}") from None
    if direction is not None:
        try:
            _check_question(a, direction, ())
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    return a, direction


def serialize_automaton(a: HexAutomaton, direction: DirectionMode | None = None) -> str:
    lines = [
        HXA_HEADER,
        f"kind: {_NAMES_KIND[a.kind]}",
        ("alphabet: " + " ".join(sorted(a.alphabet))).rstrip(),
        ("forward-states: " + " ".join(sorted(a.forward_states))).rstrip(),
        ("backward-states: " + " ".join(sorted(a.backward_states))).rstrip(),
        f"start: {a.start}",
        ("final: " + " ".join(sorted(a.finals))).rstrip(),
    ]
    lines.extend(f"rule: {p} {sym} -> {q}" for p, sym, q in sorted(a.value_rules))
    lines.extend(f"border: {p} -> {q}" for p, q in sorted(a.border_rules))
    if direction is not None:
        lines.append(f"direction: {direction.code}")
    return "\n".join(lines) + "\n"
