"""Bounded picture enumeration and exact language-equivalence oracles.

Everything here decides statements about automaton languages restricted to a
finite set of sizes.  Each thing is decided once: pictures are ordered by
`picture_sort_key` (cell count, size, row-major symbols), an op-image of a
language is the same machine's language in another mode (the op-image of
the language in mode g is the language in mode `compose(g, invert(op))`),
and `automata._check_question` alone checks a question's machine, mode
kind and alphabet.  There are two oracles:

  * the enumeration oracle (`bounded_equivalent`) lists the accepted symbol
    words of every image size in a bound, moves each into row-major order
    with one cell permutation per size, and compares the two sets of words;
    it builds one picture, the witness (`accepted_set` builds every member,
    for callers that want pictures);
  * the exact per-size oracle (`exact_equivalent_for_size`) enumerates no
    pictures.  For two modes that read the same lines, in the same or the
    reverse order (`scan._carried_lines`), a pair search (`_PairSearch`)
    advances the set of reachable pairs of frontier sets one read at a
    time.  A size's verdict reads its line lengths alone, one memoized read
    per line; a mismatch's plan and counterexample come after, greedily,
    cell by cell in row-major order, each cell fixed to the first symbol
    for which a mismatch is still reachable.  Where the order is reversed
    (relative element r3 or R3), one side is read as its reversal
    (`automata._reversal`, `point_reflection`'s construction), which makes
    the question one in the same order.  One function, `_aligned`, builds
    every such question (`_Question`), for all three entry points that ask
    one.  This oracle alone keeps the last question, one per thread, keyed
    by the call's arguments but the size, for its next call to reuse, and
    puts each new question once to the closure below: a question it
    certifies answers every size without a walk.

The two agree wherever both run, witness included; every language-level
claim in the test suite is accepted only when one of these oracles confirms
it.  On the same questions as the per-size oracle, `equal_at_every_size`
decides equality at every size from one closure (`_certified`) over the
pair search: a run reads every picture as a word of nonempty lines, each
followed by `#`, and the closure steps every such word's pairs, tagged by
line parity and by whether a line has begun.  It is sufficient, not
necessary: two machines may differ only on words no size reads, and then it
certifies nothing.  `equivalent` does not call it.

`equivalent`, the entry point `hexscan equiv` calls, answers
`bounded_equivalent`'s question from one oracle per question, chosen by the
two modes: one pair search over every size where they read the same lines,
in either order, and elsewhere (the questions whose op turns the line
family), within a fixed budget of pictures, `bounded_equivalent` itself,
which stays pure enumeration: the reference the exact oracle is tested
against.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .hexgrid import (
    BORDER_SYMBOL,
    Cell,
    HexPicture,
    HexSize,
    cell_count,
    cells,
    picture_from_cells,
    row_widths,
)
from .symmetry import apply_op, check_op, compose, invert, transform_size
from .automata import HexAutomaton, IndexedAutomaton, _check_question, _reversal, _union
from .scan import _SIDES, DirectionMode, _carried_lines, _line_lengths, scan_lines


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

    members: frozenset[HexPicture]


def picture_sort_key(
    picture: HexPicture,
) -> tuple[int, tuple[int, int, int], tuple[tuple[str, ...], ...]]:
    """The one picture order: cell count, then size, then row-major symbols.

    `SizeBound.sorted_sizes`, `enumerate_pictures` and both oracles'
    witnesses follow it.  Wherever every side is at most 9 and every symbol
    character sorts above the space, it agrees with ordering by cell count,
    then serialized text.
    """
    return cell_count(picture.size), picture.size.as_tuple(), picture.rows


def _picture(size: HexSize, flat: tuple[str, ...]) -> HexPicture:
    """The picture whose symbols in row-major order are `flat`."""
    rows = []
    at = 0
    for w in row_widths(size):
        rows.append(flat[at:at + w])
        at += w
    return HexPicture(size, tuple(rows))


def _symbols(alphabet: Iterable[str]) -> tuple[str, ...]:
    """The alphabet as a sorted tuple of symbols; every question needs one."""
    symbols = tuple(sorted(set(alphabet)))
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    return symbols


def enumerate_pictures(alphabet: Iterable[str], bound: SizeBound) -> Iterator[HexPicture]:
    """Every picture over the alphabet with size in the bound, exactly once.

    Pictures stream in `picture_sort_key` order: sizes as `sorted_sizes`
    lists them, and within a size row-major assignments over the sorted
    alphabet.
    """
    symbols = _symbols(alphabet)
    for size in bound.sorted_sizes():
        for flat in itertools.product(symbols, repeat=cell_count(size)):
            yield _picture(size, flat)


def _accepted_words(
    a: HexAutomaton, size: HexSize, d: DirectionMode, symbols: tuple[str, ...]
) -> list[tuple[str, ...]]:
    """All words the automaton accepts at a size, each as its symbols in row-major order.

    Position k of the run's word reads row-major cell
    `reader(range(n + 1))[k]`, or `#` where that is the cell count n.  A
    forward pass collects the nonempty frontiers reachable at each position,
    stepping each (position, frontier) on every symbol, or on `#`.  A
    backward pass then builds the words accepted from each of them out of
    those of the next position, as one list per remaining cell (a column)
    rather than one tuple per word: a frontier with a single live step
    shares its successor's columns, and one with several joins theirs.  So
    common prefixes share their frontier work, dead frontiers prune whole
    subtrees, and no suffix is copied into a tuple of its own.  The start's
    columns, put in row-major order, are zipped into the words, and no
    picture is built.  Neither pass recurses, so the run length is not
    bounded by the stack.
    """
    idx = a._indexed
    n = cell_count(size)
    read = scan_lines(size, d).reader(range(n + 1))
    on_cell = [(sym, idx.value[sym]) for sym in symbols]
    on_border = [(BORDER_SYMBOL, idx.value[BORDER_SYMBOL])]
    # edges[i][frontier]: the (symbol, next frontier) steps out of position i
    edges: list[dict[int, list[tuple[str, int]]]] = []
    layer = {idx.start_mask}
    for k in read:
        choices = on_border if k == n else on_cell
        out = {}
        for frontier in layer:
            out[frontier] = [(sym, nxt) for sym, succ in choices if (nxt := _union(succ, frontier))]
        edges.append(out)
        layer = {nxt for steps in out.values() for _, nxt in steps}
    # count[frontier] words are accepted from frontier on, and
    # columns[frontier][k] holds the k-th remaining cell's symbol of each
    count = {frontier: 1 for frontier in layer if frontier & idx.finals_mask}
    columns: dict[int, tuple[list[str], ...]] = dict.fromkeys(count, ())
    for out, k in zip(reversed(edges), reversed(read)):
        before_count: dict[int, int] = {}
        before: dict[int, tuple[list[str], ...]] = {}
        for frontier, steps in out.items():
            steps = [step for step in steps if step[1] in count]
            if len(steps) == 1:
                sym, nxt = steps[0]
                before_count[frontier] = count[nxt]
                # a `#` read fills no cell, so it adds no column
                before[frontier] = columns[nxt] if k == n else ([sym] * count[nxt], *columns[nxt])
            elif steps:
                first: list[str] = []
                for sym, nxt in steps:
                    first += [sym] * count[nxt]
                joined = zip(*[columns[nxt] for _, nxt in steps])
                before_count[frontier] = len(first)
                before[frontier] = (first, *map(list, map(itertools.chain.from_iterable, joined)))
        count, columns = before_count, before
    if idx.start_mask not in columns:
        return []
    row_major: list[list[str]] = [[]] * n
    for k, column in zip([k for k in read if k != n], columns[idx.start_mask]):
        row_major[k] = column
    return list(zip(*row_major))


def accepted_set(
    a: HexAutomaton,
    d: DirectionMode,
    alphabet: Iterable[str],
    bound: SizeBound,
) -> LanguageSample:
    symbols = _symbols(alphabet)
    _check_question(a, d, symbols)
    members = frozenset(
        _picture(size, flat)
        for size in bound.sizes
        for flat in _accepted_words(a, size, d, symbols)
    )
    return LanguageSample(members)


def image_set(sample: LanguageSample, op: str) -> LanguageSample:
    check_op(op)
    return LanguageSample(frozenset(apply_op(op, p) for p in sample.members))


def _image_question(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    alphabet: Iterable[str],
    op: str,
) -> tuple[tuple[str, ...], DirectionMode]:
    """A checked question's symbols, and the mode a1 is read in at the image sizes."""
    symbols = _symbols(alphabet)
    check_op(op)
    image_mode = DirectionMode(d1.kind, compose(d1.element, invert(op)))
    _check_question(a1, d1, symbols)
    _check_question(a2, d2, symbols)
    return symbols, image_mode


def _enumerated_difference(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    size: HexSize,
    symbols: tuple[str, ...],
) -> HexPicture | None:
    """The smallest picture at `size` accepted by exactly one side, from the two sets of words."""
    diff = set(_accepted_words(a1, size, d1, symbols))
    diff.symmetric_difference_update(_accepted_words(a2, size, d2, symbols))
    return _picture(size, min(diff)) if diff else None


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

    Otherwise the smallest picture by `picture_sort_key` in the symmetric
    difference is returned.  The op-image of a1's language in mode g is
    a1's language in mode `compose(g, invert(op))`, so both sides are read
    at the image sizes, as sets of symbol words in row-major order.  Sizes
    are walked in `sorted_sizes` order and the walk stops at the first size
    with a difference; one picture is built, from its smallest word.  It
    enumerates every size, and is the reference `equivalent` is tested
    against.
    """
    symbols, image_mode = _image_question(a1, d1, a2, d2, alphabet, op)
    for size in bound.image(op).sorted_sizes():
        witness = _enumerated_difference(a1, image_mode, a2, d2, size, symbols)
        if witness is not None:
            return witness
    return None


# The two reads of a pair search that are not a symbol: a cell left free
# (any symbol of the alphabet), and entering a line side 0 carries.
_ANY = None
_ENTER = ()


class _PairSearch:
    """Reachable frontier pairs of two automata over one alphabet, as bitmasks.

    One search serves one question, the two sides and the symbols, at every
    size and in every pair of modes: a pair's successors on a read depend on
    neither.  Each side is an `IndexedAutomaton`: a machine's rule table,
    or for side 0 that of its reversal (`automata._reversal`).  Side 0
    carries the relation on a line the two plans read in opposite
    orientations: `(F, M)`, with `F` its frontier at the line's start and
    `M[p]` the states reachable from `p` by reading the line's symbols so
    far in reverse, one bitmask per state.  A symbol w updates it as
    M'[p] = union of M[q] over q in delta(p, w); the line's `#` applies `M`
    to `F` and steps the frontier that gives.  Each pair `(x0, x1)` the
    search meets gets the next bit index, so a set of pairs is one int.  A
    read is a symbol, `#`, `_ANY` (a free cell) or `_ENTER` (a carried line
    begins, `x0` becoming the relation `(x0, identity)`).  A step of a set
    on a read is the union of its pairs' successors; both are computed when
    first needed and kept on the search, as is a set's successor over a
    free line (`free`), so every `mismatch` call of one question, at any
    size and the greedy witness's included, reuses the reads of the calls
    before it.  No pair is ever dropped from a set: the pair of two empty
    frontiers never refutes.
    """

    def __init__(self, s0: IndexedAutomaton, s1: IndexedAutomaton, symbols: tuple[str, ...]):
        self.sides = (s0, s1)
        self.identity = tuple(1 << p for p in range(len(s0.names)))
        self.symbols = symbols
        self.pairs: list[tuple] = []
        self.index: dict[tuple, int] = {}
        # the pairs after which exactly one side accepts
        self.refuting = 0
        # read -> set of pairs -> its successor set; a one-pair set's entry is that pair's row
        self.steps: dict = {read: {} for read in (*symbols, BORDER_SYMBOL, _ANY, _ENTER)}
        # (set of pairs, length, carried) -> the set after a free line and its `#`
        self.free: dict[tuple[int, int, bool], int] = {}
        self.start = self._bit((s0.start_mask, s1.start_mask))

    def _bit(self, pair: tuple) -> int:
        """The one-pair set of `pair`, indexing the pair on first sight."""
        i = self.index.get(pair)
        if i is None:
            i = self.index[pair] = len(self.pairs)
            self.pairs.append(pair)
            x0, x1 = pair
            if type(x0) is int:  # a frontier pair, not a carried relation
                s0, s1 = self.sides
                if bool(x0 & s0.finals_mask) != bool(x1 & s1.finals_mask):
                    self.refuting |= 1 << i
        return 1 << i

    def _row(self, i: int, read) -> int:
        """The set of successors of pair i on `read`."""
        x0, x1 = self.pairs[i]
        if read is _ANY:
            out = 0
            for sym in self.symbols:
                out |= self._step(1 << i, sym)
            return out
        if read is _ENTER:
            return self._bit(((x0, self.identity), x1))
        s0, s1 = self.sides
        if type(x0) is not int:  # a carried relation (F, M)
            start, rows = x0
            if read != BORDER_SYMBOL:
                rel = (start, tuple(_union(rows, mask) for mask in s0.value[read]))
                return self._bit((rel, _union(s1.value[read], x1)))
            x0 = _union(rows, start)
        return self._bit((_union(s0.value[read], x0), _union(s1.value[read], x1)))

    def _step(self, pairs: int, read) -> int:
        """The set of successors of the set `pairs` on `read`."""
        memo = self.steps[read]
        nxt = memo.get(pairs)
        if nxt is None:
            nxt = 0
            rest = pairs
            while rest:
                low = rest & -rest
                rest ^= low
                row = memo.get(low)
                if row is None:
                    row = memo[low] = self._row(low.bit_length() - 1, read)
                nxt |= row
            memo[pairs] = nxt
        return nxt

    def mismatch(self, lines: tuple, fixed: dict[Cell, str]) -> bool:
        """True iff exactly one automaton accepts a picture of `lines` agreeing with `fixed`.

        A line is its cells, or its length where it is free.  Every line and
        its `#` are read; refutation is read once, at the end.
        """
        step, free = self._step, self.free
        pairs = self.start
        reading, carried = lines
        for line, enter in zip(reading, itertools.cycle(carried)):
            if type(line) is int:
                key = (pairs, line, enter)
                if key not in free:
                    nxt = step(pairs, _ENTER) if enter else pairs
                    for _ in range(line):
                        nxt = step(nxt, _ANY)
                    free[key] = step(nxt, BORDER_SYMBOL)
                pairs = free[key]
                continue
            if enter:
                pairs = step(pairs, _ENTER)
            for cell in line:
                pairs = step(pairs, fixed.get(cell, _ANY))
            pairs = step(pairs, BORDER_SYMBOL)
        return bool(pairs & self.refuting)


def _lines(order: tuple, reading: tuple) -> tuple:
    """A pair search's lines: side 1's, each its cells or its length, and the carried pattern.

    Every line is read as side 1's plan reads it.  `order` is
    `scan._carried_lines` of the two sides' modes, and side 0 carries a
    relation on line i where `carried[i % 2]`: the (even, odd) pattern it
    gives at the line count.
    """
    return reading, order[1][len(reading) % 2]


def _certified(search: _PairSearch, order: tuple) -> bool:
    """True only if `search`'s two sides agree on every word of nonempty lines `order` reads.

    A closure over `(Σ⁺ #)⁺`: it tags each pair it meets by the parity of
    its line's index and by whether it is at the line's start or inside the
    line, after at least one cell.  A start pair steps `_ENTER` where its
    line is carried, then `_ANY`; an inside pair steps `_ANY`, and `#` into
    the next line's start.  Only the pairs new to a tag are stepped.  Where
    the order is the same, line i is carried where `carried[i % 2]` at any
    line count, and every pair reached by `#` is tested.  Where it is
    reversed, the pattern depends on the line count K, so the closure runs
    once for each parity of K, testing only the pairs reached by the `#`
    of a line whose index has the other parity: the last line of K.  A
    size's words are among these, so True holds at every size; False only
    means some word of nonempty lines tells the sides apart, which may be
    a word no size reads.
    """
    reversed_order, carried = order
    # each run: the carried pattern, and the line parities whose `#` is tested
    runs = [(carried[k], (1 - k,)) for k in (0, 1)] if reversed_order else [(carried[0], (0, 1))]
    step = search._step
    for pattern, ends in runs:
        seen = {(0, False): search.start, (0, True): 0, (1, False): 0, (1, True): 0}
        todo = [(0, False, search.start)]
        while todo:
            parity, inside, pairs = todo.pop()
            if inside:  # one more cell, or the line's `#`
                ended = step(pairs, BORDER_SYMBOL)
                # `_bit` grows `refuting` as the steps meet new pairs
                if parity in ends and ended & search.refuting:
                    return False
                reached = ((parity, True, step(pairs, _ANY)), (1 - parity, False, ended))
            else:  # the line's first cell
                if pattern[parity]:
                    pairs = step(pairs, _ENTER)
                reached = ((parity, True, step(pairs, _ANY)),)
            for parity, inside, pairs in reached:
                fresh = pairs & ~seen[parity, inside]
                if fresh:
                    seen[parity, inside] |= fresh
                    todo.append((parity, inside, fresh))
    return True


@dataclass(frozen=True)
class _Question:
    """An aligned question: its search, side 0's machine, the modes' `order`, side 1's mode."""

    side0: HexAutomaton
    order: tuple
    mode1: DirectionMode
    search: _PairSearch

    @cached_property
    def certified(self) -> bool:
        return _certified(self.search, self.order)


def _aligned(a1: HexAutomaton, d1: DirectionMode, a2: HexAutomaton, d2: DirectionMode,
             symbols: tuple[str, ...]) -> _Question | None:
    """The checked question of a1 in d1 against a2 in d2; None where the modes do not align.

    Side 0 is the machine with fewer states, a1 on a tie.  Where the order is
    reversed (relative element r3 or R3), side 0 is read as its reversal
    (`automata._reversal`), which makes the question one in the same order.
    """
    swap = len(a2.states) < len(a1.states)
    (a, mode0), (b, mode1) = ((a2, d2), (a1, d1)) if swap else ((a1, d1), (a2, d2))
    order = _carried_lines(mode0, mode1)
    if order is None:
        return None
    s0 = _reversal(a)._indexed if order[0] else a._indexed
    return _Question(a, order, mode1, _PairSearch(s0, b._indexed, symbols))


class _Kept(threading.local):
    """This thread's last kept `_Question`, and its key: (a1, d1, a2, d2, alphabet)."""

    key = question = None


_kept = _Kept()


def _kept_question(a1: HexAutomaton, d1: DirectionMode, a2: HexAutomaton, d2: DirectionMode,
                   alphabet: Iterable[str] | None) -> _Question:
    """The aligned question of these arguments, kept for this thread's next call.

    Arguments equal to the last call's give its question, unchecked: the
    alphabet is read once, into a frozenset, so a set changed since, or a
    generator, is compared by what it holds now.  Any others are checked
    and get a new question.  ValueError where the modes do not align.
    """
    given = alphabet if alphabet is None else frozenset(alphabet)
    key = (a1, d1, a2, d2, given)
    if _kept.key == key:
        return _kept.question
    if given is None:
        given = a1.alphabet & a2.alphabet
    symbols, _ = _image_question(a1, d1, a2, d2, given, "R0")
    question = _aligned(a1, d1, a2, d2, symbols)
    if question is None:
        raise ValueError("exact comparison requires plans reading the same lines "
                         f"in the same or the reverse order; {d1.code} and {d2.code} differ")
    _kept.key, _kept.question = key, question
    return question


def equal_at_every_size(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    alphabet: Iterable[str] | None = None,
) -> bool:
    """True only if a1 in d1 and a2 in d2 accept the same pictures at every size.

    The questions, the default alphabet and the checks are
    `exact_equivalent_for_size`'s, and so is the kept search.  One closure
    (`_certified`) decides it over every word of nonempty lines, each
    followed by `#`, which is more words than the sizes read: True is
    certain, and False only says that some such word tells the two
    machines apart, which may be one no hexagon produces.
    """
    return _kept_question(a1, d1, a2, d2, alphabet).certified


def exact_equivalent_for_size(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    size: HexSize,
    alphabet: Iterable[str] | None = None,
) -> HexPicture | None:
    """None iff a1 in d1 and a2 in d2 accept the same pictures of `size`.

    Otherwise the smallest picture by `picture_sort_key` that exactly one
    side accepts is returned.  The alphabet defaults to the symbols both
    automata share and must be non-empty.  Each (automaton, mode) pair is
    checked as every oracle checks it, and the two modes must read the same
    lines, in the same or the reverse order (`scan._carried_lines`), as B:g
    and R:g, g and r0 after g, or g and r3 or R3 after g, do; otherwise
    ValueError, even at a size with a side of 1 where the two plans
    coincide.  No picture is enumerated.  This thread keeps the last
    question, its search included, for consecutive calls with the same
    arguments but the size (machines, modes and alphabet equal by value),
    which it answers without checking them again; any other call replaces
    it.  A new question is put once to the closure of
    `equal_at_every_size`: a kept question it certifies answers None at
    every size without a walk, and any other walks its size's lines.
    """
    question = _kept_question(a1, d1, a2, d2, alphabet)
    if question.certified:
        return None
    order, mode1, search = question.order, question.mode1, question.search
    if not search.mismatch(_lines(order, _line_lengths(size, mode1.element)), {}):
        return None
    return _searched_difference(search, size, _lines(order, scan_lines(size, mode1).reading))


def _searched_difference(search: _PairSearch, size: HexSize, lines: tuple) -> HexPicture:
    """The smallest picture of `lines` at `size` on which `search`'s two machines disagree.

    There must be one.  A line is read free until one of its cells is fixed.
    """
    reading, carried = lines
    walk = list(map(len, reading))
    line_of = {cell: i for i, line in enumerate(reading) for cell in line}
    symbols = search.symbols
    fixed: dict[Cell, str] = {}
    for cell in cells(size):
        i = line_of[cell]
        walk[i] = reading[i]
        for sym in symbols[:-1]:
            fixed[cell] = sym
            if search.mismatch((walk, carried), fixed):
                break
        else:
            fixed[cell] = symbols[-1]
    return picture_from_cells(size, fixed)


# The most pictures `equivalent` enumerates; a larger question is refused at once.
_ENUMERATION_BUDGET = 2 ** 20


def equivalent(
    a1: HexAutomaton,
    d1: DirectionMode,
    a2: HexAutomaton,
    d2: DirectionMode,
    alphabet: Iterable[str],
    bound: SizeBound,
    op: str = "R0",
) -> HexPicture | None:
    """`bounded_equivalent`'s answer, from one oracle chosen by the two modes.

    Same signature, contract and walk of the image sizes as
    `bounded_equivalent`.  Where the image mode and d2 read the same lines,
    in the same or the reverse order (`scan._carried_lines`), one pair
    search decides every size from its line lengths, with the carried
    pattern the two modes and its line count give; in reverse order its
    side 0 is read as its reversal.  The question is `_aligned`'s, built
    for the call and kept by none after it.  Only a witness's image size is
    built, and its plan.  Otherwise `bounded_equivalent` answers, unless
    the bound's pictures, counted from its cell counts alone (an op keeps
    them), exceed `_ENUMERATION_BUDGET`: then the question is refused with
    a ValueError before any size is imaged or plan built.
    """
    symbols, image_mode = _image_question(a1, d1, a2, d2, alphabet, op)
    question = _aligned(a1, image_mode, a2, d2, symbols)
    if question is None:
        # two symbols on 21 cells are over the budget: no larger power is computed
        counts = (len(symbols) ** min(cell_count(size), 21) for size in bound.sizes)
        if any(total > _ENUMERATION_BUDGET for total in itertools.accumulate(counts)):
            raise ValueError(f"the question needs more than {_ENUMERATION_BUDGET} pictures "
                             "enumerated where the two plans do not align")
        return bounded_equivalent(a1, d1, a2, d2, symbols, bound, op)
    order, mode1, search = question.order, question.mode1, question.search
    # a size's image has in mode1 the lines the size has in `element`
    sides, element = _SIDES[op], compose(mode1.element, op)
    for size in sorted(bound.sizes, key=lambda s: (cell_count(s), sides(s.as_tuple()))):
        if search.mismatch(_lines(order, _line_lengths(size, element)), {}):
            image = transform_size(op, size)
            reading = scan_lines(image, mode1).reading
            return _searched_difference(search, image, _lines(order, reading))
    return None
