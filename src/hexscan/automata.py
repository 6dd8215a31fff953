"""Hexagonal scanning automata: validation, execution, determinization, I/O.

An automaton is an 8-tuple-style record: disjoint forward/backward state
sets, an alphabet, value rules (state, symbol, state), border rules
(state, state) read on `#`, a start state and final states.

Boustrophedon machines alternate line orientation and are strictly typed:
value rules stay inside one partition and border rules cross between the
partitions.  Returning machines rescan every line in the same orientation;
their backward set may be empty and their rules are untyped.

A run consumes, per scan line, the line's cells followed by one border
symbol, and accepts iff a final state is reachable after the last border
read.  Nondeterminism is resolved by frontier-set simulation, which is exact
because the visit order never depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .hexgrid import BORDER_SYMBOL, Cell, FormatError, HexPicture, RESERVED_SYMBOLS
from .scan import (
    BOUSTROPHEDON,
    DirectionMode,
    RETURNING,
    ScanPlan,
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

    @property
    def states(self) -> frozenset[str]:
        return self.forward_states | self.backward_states

    def describe(self) -> str:
        return (
            f"{self.kind} automaton: {len(self.states)} states, "
            f"{len(self.value_rules)} value rules, {len(self.border_rules)} border rules"
        )

    # Derived once per automaton and kept in its instance dict, so they are
    # freed with it; the fields are immutable, so neither can go stale.
    @cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        return tuple(validate(self))

    @cached_property
    def _indexed(self) -> "IndexedAutomaton":
        names = tuple(sorted(self.states))
        index = {name: i for i, name in enumerate(names)}
        value = {sym: [0] * len(names) for sym in self.alphabet}
        for p, sym, q in self.value_rules:
            value[sym][index[p]] |= 1 << index[q]
        border = [0] * len(names)
        for p, q in self.border_rules:
            border[index[p]] |= 1 << index[q]
        finals_mask = 0
        for f in self.finals:
            finals_mask |= 1 << index[f]
        return IndexedAutomaton(
            names,
            {sym: tuple(row) for sym, row in value.items()},
            tuple(border),
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
    """Convenience constructor accepting any iterables."""
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
    """Empty list iff the automaton is well formed; else one line per issue."""
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
    for p, sym, q in sorted(a.value_rules):
        if p not in states or q not in states:
            out.append(f"value rule {p} {sym} -> {q} uses unknown state")
            continue
        if sym not in a.alphabet:
            out.append(f"value rule {p} {sym} -> {q} uses symbol outside alphabet")
        if a.kind == BOUSTROPHEDON:
            if p in a.forward_states and q not in a.forward_states:
                out.append(f"forward rule {p} {sym} -> {q} targets backward state")
            if p in a.backward_states and q not in a.backward_states:
                out.append(f"backward rule {p} {sym} -> {q} targets forward state")
    for p, q in sorted(a.border_rules):
        if p not in states or q not in states:
            out.append(f"border rule {p} -> {q} uses unknown state")
            continue
        if a.kind == BOUSTROPHEDON:
            if p in a.forward_states and q not in a.backward_states:
                out.append(f"border rule {p} -> {q} from forward state must target backward state")
            if p in a.backward_states and q not in a.forward_states:
                out.append(f"border rule {p} -> {q} from backward state must target forward state")
    return out


def require_valid(a: HexAutomaton) -> None:
    """Raise on every call for an invalid automaton; `validate` runs once per automaton."""
    if a._diagnostics:
        raise InvalidAutomatonError(list(a._diagnostics))


def is_deterministic(a: HexAutomaton) -> bool:
    """True iff no state has two rules on the same symbol, `#` included."""
    require_valid(a)
    seen: set[tuple[str, str]] = set()
    for p, sym, _ in a.value_rules:
        if (p, sym) in seen:
            return False
        seen.add((p, sym))
    border_seen: set[str] = set()
    for p, _ in a.border_rules:
        if p in border_seen:
            return False
        border_seen.add(p)
    return True


class IndexedAutomaton(NamedTuple):
    """Rule tables over bit-indexed states; frontiers are int bitmasks.

    `value[symbol][p]` and `border[p]` are the successor masks of state p.
    """

    names: tuple[str, ...]
    value: dict[str, tuple[int, ...]]
    border: tuple[int, ...]
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
    plan: ScanPlan
    steps: tuple[TraceStep, ...]
    accepted: bool


def run(
    a: HexAutomaton,
    picture: HexPicture,
    mode: DirectionMode | None = None,
    trace: bool = False,
):
    """Run the automaton over a picture; returns bool, or (bool, RunTrace).

    Each line is consumed in the plan's reading order, `b` flagged where the
    plan reads it backwards, and followed by one border read.
    """
    require_valid(a)
    if mode is None:
        mode = canonical_mode(a.kind)
    if mode.kind != a.kind:
        raise ValueError(f"mode kind {mode.kind} does not match automaton kind {a.kind}")
    extra = picture.symbols() - a.alphabet
    if extra:
        raise ValueError(f"picture symbols outside automaton alphabet: {sorted(extra)}")
    idx = a._indexed
    value, border = idx.value, idx.border
    plan = scan_lines(picture.size, mode)
    frontier = idx.start_mask
    steps: list[TraceStep] = []
    rows = picture.rows
    lcap = picture.size.l - 1
    for line, backward in zip(plan.reading, plan.backward):
        flag = "b" if backward else "f"
        for cell in line:
            symbol = rows[cell.r][cell.q + min(cell.r, lcap)]
            frontier = _union(value[symbol], frontier)
            if trace:
                steps.append(TraceStep(len(steps), symbol, cell, flag, idx.to_states(frontier)))
        frontier = _union(border, frontier)
        if trace:
            steps.append(TraceStep(len(steps), BORDER_SYMBOL, None, flag, idx.to_states(frontier)))
    accepted = bool(frontier & idx.finals_mask)
    if trace:
        return accepted, RunTrace(plan, tuple(steps), accepted)
    return accepted


def run_canonical(a: HexAutomaton, picture: HexPicture, trace: bool = False):
    return run(a, picture, canonical_mode(a.kind), trace=trace)


def determinize(a: HexAutomaton) -> HexAutomaton:
    """Subset construction, applied inside each partition.

    Forward subsets step to forward subsets on symbols and to backward
    subsets on `#` (and vice versa), so rule typing survives.  Only nonempty
    reachable subsets are kept; the result is deterministic and accepts the
    same pictures under every direction mode.  A subset is named by its
    members joined with `+` in braces; if two reachable subsets get the same
    name (a state name containing `+`), ValueError names both.
    """
    require_valid(a)
    idx = a._indexed
    flips = a.kind == BOUSTROPHEDON
    symbols = sorted(a.alphabet)
    is_forward = {idx.start_mask: True}  # every reachable subset, by partition
    value_steps: list[tuple[int, str, int]] = []
    border_steps: list[tuple[int, int]] = []
    pending = [idx.start_mask]
    while pending:
        subset = pending.pop()
        for sym in symbols:
            nxt = _union(idx.value[sym], subset)
            if nxt:
                value_steps.append((subset, sym, nxt))
                if nxt not in is_forward:
                    is_forward[nxt] = is_forward[subset]
                    pending.append(nxt)
        nxt = _union(idx.border, subset)
        if nxt:
            border_steps.append((subset, nxt))
            if nxt not in is_forward:
                is_forward[nxt] = not is_forward[subset] if flips else True
                pending.append(nxt)
    names: dict[int, str] = {}
    owners: dict[str, int] = {}
    for subset in is_forward:
        name = names[subset] = "{" + "+".join(idx.to_states(subset)) + "}"
        other = owners.setdefault(name, subset)
        if other != subset:
            raise ValueError(
                f"subsets {idx.to_states(other)} and {idx.to_states(subset)} "
                f"would both be named {name!r}"
            )
    return HexAutomaton(
        kind=a.kind,
        forward_states=frozenset(names[s] for s, fwd in is_forward.items() if fwd),
        backward_states=frozenset(names[s] for s, fwd in is_forward.items() if not fwd),
        alphabet=a.alphabet,
        value_rules=frozenset((names[p], sym, names[q]) for p, sym, q in value_steps),
        border_rules=frozenset((names[p], names[q]) for p, q in border_steps),
        start=names[idx.start_mask],
        finals=frozenset(names[s] for s in is_forward if s & idx.finals_mask),
    )


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

    a = automaton(
        _KIND_NAMES[kind_name], forward, backward, alphabet,
        value_rules, border_rules, start, finals,
    )
    if a._diagnostics:
        raise FormatError("invalid automaton: " + "; ".join(a._diagnostics))
    if direction is not None and direction.kind != a.kind:
        raise FormatError("direction kind does not match automaton kind")
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
