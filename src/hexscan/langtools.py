"""Bounded picture enumeration and exact language-equivalence oracles.

Everything here decides statements about automaton languages restricted to a
finite set of sizes, in one of two ways:

  * the enumeration oracle (`accepted_set`, `bounded_equivalent`) lists the
    accepted pictures of every size in a bound and compares the sets;
  * the exact per-size oracle (`exact_equivalent_for_size`) enumerates no
    pictures.  It advances the reachable pairs of frontier sets one cell at a
    time, deduplicating after every cell and memoizing each step.  On a line
    the two automata read in opposite orientations (the odd lines of a
    boustrophedon machine against a returning one), one of them carries the
    relation of the line's symbols read so far in reverse, one bitmask per
    state, and applies it to its frontier at the line's end.  On a mismatch
    the smallest counterexample is built greedily, cell by cell in row-major
    order, with at most cells * (|alphabet| - 1) further pair searches.

The two agree wherever both run, witness included; every language-level
claim in the test suite is accepted only when one of these oracles confirms
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .hexgrid import (
    Cell,
    HexPicture,
    HexSize,
    cell_count,
    cells,
    picture_from_cells,
    row_widths,
    serialize_picture,
)
from .symmetry import apply_op, check_op, transform_size
from .automata import HexAutomaton, _union, require_valid
from .scan import DirectionMode, ScanPlan, scan_lines


@dataclass(frozen=True)
class SizeBound:
    """A finite, explicit set of picture sizes."""

    sizes: frozenset[HexSize]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("size bound must be non-empty")

    @classmethod
    def max_side(cls, k: int) -> "SizeBound":
        """All sizes with every side at most k."""
        if k < 1:
            raise ValueError("max side must be at least 1")
        r = range(1, k + 1)
        return cls(frozenset(HexSize(l, m, n) for l in r for m in r for n in r))

    def sorted_sizes(self) -> list[HexSize]:
        return sorted(self.sizes, key=lambda s: (cell_count(s), s.as_tuple()))

    def image(self, op: str) -> "SizeBound":
        return SizeBound(frozenset(transform_size(op, s) for s in self.sizes))


@dataclass(frozen=True)
class LanguageSample:
    """The accepted subset of all pictures over an alphabet within a bound."""

    alphabet: frozenset[str]
    bound: SizeBound
    members: frozenset[HexPicture]


def picture_sort_key(picture: HexPicture) -> tuple[int, str]:
    """Deterministic reporting order: cell count, then serialized text."""
    return cell_count(picture.size), serialize_picture(picture)


def enumerate_pictures(alphabet: Iterable[str], bound: SizeBound) -> Iterator[HexPicture]:
    """Every picture over the alphabet with size in the bound, exactly once.

    Pictures stream in `picture_sort_key` order: sizes by cell count, and
    within a size row-major assignments over the sorted alphabet.
    """
    symbols = sorted(set(alphabet))
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    for size in bound.sorted_sizes():
        widths = row_widths(size)
        total = sum(widths)
        for flat in itertools.product(symbols, repeat=total):
            rows = []
            at = 0
            for w in widths:
                rows.append(tuple(flat[at:at + w]))
                at += w
            yield HexPicture(size, tuple(rows))


def _accepted_words(
    a: HexAutomaton, size: HexSize, d: DirectionMode, symbols: tuple[str, ...]
) -> tuple[list, list[tuple[str, ...]]]:
    """All symbol words (in consumption order) the automaton accepts at a size.

    A forward pass collects the nonempty frontiers reachable at each position
    of the run, stepping each (position, frontier) once per symbol.  A
    backward pass then builds the accepted suffixes of each of them from
    those of the next position, so common prefixes share their frontier work
    and dead frontiers prune whole subtrees.  Neither pass recurses, so the
    run length is not bounded by the stack.
    Returns (cells in consumption order, accepted words).
    """
    idx = a._indexed
    rows = [(sym, idx.value[sym]) for sym in symbols]
    plan = scan_lines(size, d)
    borders: list[bool] = []
    for line in plan.reading:
        borders.extend([False] * len(line))
        borders.append(True)
    # edges[i][frontier]: the (symbol, next frontier) steps out of position
    # i, with symbol None on a border read
    edges: list[dict[int, list[tuple[str | None, int]]]] = []
    layer = {idx.start_mask}
    for border in borders:
        out: dict[int, list[tuple[str | None, int]]] = {}
        for frontier in layer:
            if border:
                nxt = _union(idx.border, frontier)
                out[frontier] = [(None, nxt)] if nxt else []
            else:
                steps = out[frontier] = []
                for sym, succ in rows:
                    nxt = _union(succ, frontier)
                    if nxt:
                        steps.append((sym, nxt))
        edges.append(out)
        layer = {nxt for steps in out.values() for _, nxt in steps}
    suffixes = {frontier: ((),) for frontier in layer if frontier & idx.finals_mask}
    for out in reversed(edges):
        before: dict[int, tuple[tuple[str, ...], ...]] = {}
        for frontier, steps in out.items():
            acc: list[tuple[str, ...]] = []
            for sym, nxt in steps:
                tails = suffixes.get(nxt, ())
                if sym is None:
                    acc.extend(tails)
                else:
                    acc.extend((sym,) + tail for tail in tails)
            if acc:
                before[frontier] = tuple(acc)
        suffixes = before
    order = [cell for line in plan.reading for cell in line]
    return order, list(suffixes.get(idx.start_mask, ()))


def accepted_set(
    a: HexAutomaton,
    d: DirectionMode,
    alphabet: Iterable[str],
    bound: SizeBound,
) -> LanguageSample:
    require_valid(a)
    if d.kind != a.kind:
        raise ValueError(f"mode kind {d.kind} does not match automaton kind {a.kind}")
    alphabet = frozenset(alphabet)
    missing = alphabet - a.alphabet
    if missing:
        raise ValueError(f"alphabet symbols {sorted(missing)} outside automaton alphabet")
    symbols = tuple(sorted(alphabet))
    members: set[HexPicture] = set()
    for size in bound.sorted_sizes():
        order, words = _accepted_words(a, size, d, symbols)
        for word in words:
            members.add(picture_from_cells(size, dict(zip(order, word))))
    return LanguageSample(alphabet=alphabet, bound=bound, members=frozenset(members))


def image_set(sample: LanguageSample, op: str) -> LanguageSample:
    check_op(op)
    return LanguageSample(
        alphabet=sample.alphabet,
        bound=sample.bound.image(op),
        members=frozenset(apply_op(op, p) for p in sample.members),
    )


def bounded_equivalent(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    alphabet: Iterable[str],
    bound: SizeBound,
    op: str = "R0",
) -> HexPicture | None:
    """None iff a2's accepted set equals the op-image of a1's.

    Otherwise the smallest picture (by cell count, then serialized text) in
    the symmetric difference is returned.
    """
    alphabet = frozenset(alphabet)
    image = image_set(accepted_set(a1, d1, alphabet, bound), op)
    other = accepted_set(a2, d2, alphabet, bound.image(op))
    diff = image.members ^ other.members
    if not diff:
        return None
    return min(diff, key=picture_sort_key)


class _Stepper:
    """One automaton's memoized steps on frontiers and on line relations.

    A frontier is a bitmask of states.  A relation `(F, M)` stands for a line
    this automaton reads in the opposite orientation to the pair search: `F`
    is its frontier at the line's start and `M[p]` the states reachable from
    `p` by reading the symbols seen so far in reverse.
    """

    def __init__(self, a: HexAutomaton):
        self.idx = a._indexed
        self.identity = tuple(1 << p for p in range(len(self.idx.names)))
        self._value: dict[tuple[int, str], int] = {}
        self._border: dict[int, int] = {}
        self._relation: dict[tuple[tuple[int, ...], str], tuple[int, ...]] = {}

    def value(self, frontier: int, symbol: str) -> int:
        key = (frontier, symbol)
        nxt = self._value.get(key)
        if nxt is None:
            nxt = self._value[key] = _union(self.idx.value[symbol], frontier)
        return nxt

    def relation(self, rel: tuple[int, tuple[int, ...]], symbol: str):
        """M'[p] = union of M[q] over q in delta(p, symbol)."""
        start, rows = rel
        key = (rows, symbol)
        nxt = self._relation.get(key)
        if nxt is None:
            succ = self.idx.value[symbol]
            nxt = self._relation[key] = tuple(_union(rows, mask) for mask in succ)
        return start, nxt

    def line_end(self, x) -> int:
        """Frontier after the line's border read, resolving a relation first."""
        if not isinstance(x, int):
            start, rows = x
            x = _union(rows, start)
        nxt = self._border.get(x)
        if nxt is None:
            nxt = self._border[x] = _union(self.idx.border, x)
        return nxt


class _PairSearch:
    """Reachable frontier pairs of two automata at one size, cell by cell.

    Each line's cells are read in one orientation.  An automaton that reads
    the line that way steps its frontier; on lines the two automata read in
    opposite orientations (odd lines of a boustrophedon machine against a
    returning one), the automaton with fewer states carries a relation
    instead.  Pairs are deduplicated after every cell.
    """

    def __init__(self, a1: HexAutomaton, a2: HexAutomaton, plans: tuple[ScanPlan, ScanPlan],
                 symbols: tuple[str, ...]):
        self.sides = (_Stepper(a1), _Stepper(a2))
        self.symbols = symbols
        carrier = 0 if len(a1.states) <= len(a2.states) else 1
        reader = plans[1 - carrier]
        # (cells in reading order, index of the relation carrier or None)
        self.lines = []
        for i, order in enumerate(plans[0].reading):
            if plans[0].backward[i] == plans[1].backward[i]:
                self.lines.append((order, None))
            else:
                self.lines.append((reader.reading[i], carrier))

    def mismatch(self, fixed: dict[Cell, str]) -> bool:
        """True iff exactly one automaton accepts some picture that agrees with `fixed`."""
        s1, s2 = self.sides
        pairs = {(s1.idx.start_mask, s2.idx.start_mask)}
        for order, carrier in self.lines:
            step1, step2 = s1.value, s2.value
            if carrier == 0:
                step1 = s1.relation
                pairs = {((f1, s1.identity), f2) for f1, f2 in pairs}
            elif carrier == 1:
                step2 = s2.relation
                pairs = {(f1, (f2, s2.identity)) for f1, f2 in pairs}
            for cell in order:
                at = fixed.get(cell)
                symbols = self.symbols if at is None else (at,)
                pairs = {(step1(x1, sym), step2(x2, sym)) for x1, x2 in pairs for sym in symbols}
            pairs = {(s1.line_end(x1), s2.line_end(x2)) for x1, x2 in pairs}
            pairs.discard((0, 0))
            if not pairs:
                return False
        fin1, fin2 = s1.idx.finals_mask, s2.idx.finals_mask
        return any(bool(f1 & fin1) != bool(f2 & fin2) for f1, f2 in pairs)


def exact_equivalent_for_size(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    size: HexSize,
    alphabet: Iterable[str] | None = None,
) -> HexPicture | None:
    """Decide per-size language equality without enumerating all pictures.

    Each run is a string acceptor over the fixed linearization shape
    a^w1 # a^w2 # ... # a^wK #.  The reachable frontier pairs are advanced
    one cell at a time, with memoized steps, and the two acceptance verdicts
    are compared on every pair reachable at the end.  A line the automata
    read in opposite orientations is handled by a relation carried by one
    of them: `M[p]`, the states reachable from `p` by reading the line's
    symbols so far in reverse, is updated per symbol w as
    M'[p] = union of M[q] over q in delta(p, w), and applied to that
    automaton's frontier at the line's end.

    Directions must share the same plan geometry (equal elements); kinds may
    differ.  Returns None when equal, else the smallest counterexample by
    `picture_sort_key`.  It is built greedily: cells are fixed in row-major
    order, each to the first symbol in sorted order for which a pair search
    restricted to the cells fixed so far still reaches a mismatch (the last
    symbol needs no search).  That costs at most cells * (|alphabet| - 1)
    pair searches, and gives the first mismatch of `enumerate_pictures`.
    """
    require_valid(a1)
    require_valid(a2)
    if d1.element != d2.element:
        raise ValueError(
            "exact per-size comparison requires directions with the same element; "
            f"got {d1.code} vs {d2.code}"
        )
    if d1.kind != a1.kind or d2.kind != a2.kind:
        raise ValueError("direction kinds must match the automata kinds")
    if alphabet is None:
        alphabet = a1.alphabet & a2.alphabet
    symbols = tuple(sorted(set(alphabet)))
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    for a in (a1, a2):
        missing = set(symbols) - a.alphabet
        if missing:
            raise ValueError(f"alphabet symbols {sorted(missing)} outside automaton alphabet")

    search = _PairSearch(a1, a2, (scan_lines(size, d1), scan_lines(size, d2)), symbols)
    fixed: dict[Cell, str] = {}
    if not search.mismatch(fixed):
        return None
    for cell in cells(size):
        for sym in symbols[:-1]:
            fixed[cell] = sym
            if search.mismatch(fixed):
                break
        else:
            fixed[cell] = symbols[-1]
    return picture_from_cells(size, fixed)
