"""Direction modes and scan plans.

A scan plan decomposes a hexagon into the {q constant} family of lines.  The
canonical plan visits lines left to right (q = -(l-1) .. m-1), each line top
to bottom.  A mode carries a scanner kind plus a symmetry op g; its plan is
the affine image of the canonical lines of the g-transformed size under g's
inverse (`symmetry.affine`), so scanning a picture in mode g visits the same
symbols, in the same order, as scanning the g-image canonically.

Every line of a plan advances by one step, so a plan is stated by its size,
that step and each line's first cell and length; the cells themselves are
built only when `lines` or `reading` is asked for, which an untraced run
never does: its `reader` maps positions straight from the geometry.

Mode codes are `B:<op>` (boustrophedon) and `R:<op>` (returning), 24 total.
Both kinds of one element build the same geometry the same way, and differ
only in reading orientation, which `_ODD_LINES_BACKWARD` alone states: a
boustrophedon mode reads every odd line backwards, a returning mode every
line forwards.  Both `scan_lines` and `_carried_lines` read it.
`_line_lengths` needs no plan: lengths follow from `_columns` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .hexgrid import Cell, HexSize, cell_count, row_widths
from .symmetry import _SIDES, OP_NAMES, affine, check_op, compose, invert, transform_size

BOUSTROPHEDON = "boustrophedon"
RETURNING = "returning"
KINDS = (BOUSTROPHEDON, RETURNING)

_KIND_PREFIX = {BOUSTROPHEDON: "B", RETURNING: "R"}
_PREFIX_KIND = {v: k for k, v in _KIND_PREFIX.items()}


@dataclass(frozen=True)
class DirectionMode:
    """A scanning mode: scanner kind plus the symmetry op identifying it."""

    kind: str
    element: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scanner kind {self.kind!r}")
        check_op(self.element)

    @property
    def code(self) -> str:
        return f"{_KIND_PREFIX[self.kind]}:{self.element}"


def parse_direction(code: str) -> DirectionMode:
    head, sep, op = code.partition(":")
    if not sep or head not in _PREFIX_KIND:
        raise ValueError(f"bad direction code {code!r}; expected B:<op> or R:<op>")
    return DirectionMode(_PREFIX_KIND[head], check_op(op))


def canonical_mode(kind: str) -> DirectionMode:
    return DirectionMode(kind, "R0")


def modes_for_kind(kind: str) -> tuple[DirectionMode, ...]:
    return tuple(DirectionMode(kind, op) for op in OP_NAMES)


@dataclass(frozen=True)
class ScanPlan:
    """An ordered decomposition of a hexagon's cells into straight lines.

    The fields are the plan geometry: every line advances by one `step`
    (dr, dq), and `starts` holds each line's first cell and length,
    (r, q, length), in order.  The plans of both scanner kinds for one size
    and element hold equal geometry, and differ in `backward` alone.  A run
    reads line i as `reading[i]`: from its far end, stepping back, when
    `backward[i]`, else from its first cell, and one border symbol `#` after
    it, so it reads the one word `L1 # L2 # ... LK #`.  `lines` is `reading`
    with its backward lines turned back, each line from its first cell.
    `reader` builds the run's word from a picture's symbols.  `lines`,
    `reading` and `reader` are computed on first use; an untraced run reads
    only `reader`, and so builds no cell.
    """

    size: HexSize
    step: tuple[int, int]
    starts: tuple[tuple[int, int, int], ...]
    backward: tuple[bool, ...]

    def _walks(self) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
        """Each line in reading order as its cells' rows and columns, two sequences to zip."""
        dr, dq = self.step
        for (r, q, length), backward in zip(self.starts, self.backward):
            if backward:  # start at the far end and step back
                last = length - 1
                yield _axis(r + last * dr, -dr, length), _axis(q + last * dq, -dq, length)
            else:
                yield _axis(r, dr, length), _axis(q, dq, length)

    @cached_property
    def reading(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(tuple(map(_cell, zip(rows, cols))) for rows, cols in self._walks())

    @cached_property
    def lines(self) -> tuple[tuple[Cell, ...], ...]:
        turned = zip(self.reading, self.backward)
        return tuple(line[::-1] if back else line for line, back in turned)

    @cached_property
    def reader(self) -> Callable[[Sequence], tuple]:
        """Maps a picture's symbols in row-major order, then `#`, to the word a run reads.

        One `itemgetter`: for each line in reading order, its cells'
        row-major positions, then position `cell_count`, the `#`.  Applied
        to `range(cell_count + 1)` it gives that sequence of positions itself.
        """
        count = cell_count(self.size)
        index = _indices(count)
        lcap = self.size.l - 1
        # row r's cells start at position first[r] and at column -min(r, l-1)
        first = itertools.accumulate(row_widths(self.size), initial=0)
        base = [start + min(r, lcap) for r, start in enumerate(first)]
        at = []
        for rows, cols in self._walks():
            at.extend([index[base[r] + q] for r, q in zip(rows, cols)])
            at.append(index[count])
        return itemgetter(*at)


def _axis(start: int, step: int, length: int) -> Iterable[int]:
    """`length` values from `start` by `step`: a range, or `start` repeated where `step` is 0."""
    return range(start, start + step * length, step) if step else itertools.repeat(start, length)


@lru_cache(maxsize=64)
def _indices(count: int) -> tuple[int, ...]:
    """Positions 0 .. count, one shared tuple per cell count, so plans share their ints."""
    return tuple(range(count + 1))


# Builds a Cell from an (r, q) pair without a Python-level __new__ call
_cell = partial(tuple.__new__, Cell)
# Whether a kind reads every odd line backwards; every other line is read forwards
_ODD_LINES_BACKWARD = {BOUSTROPHEDON: True, RETURNING: False}


def _columns(l: int, m: int, n: int) -> Iterator[tuple[int, int, int]]:
    """The canonical lines of size (l, m, n) in order: each column q, its top row r, its length."""
    for q in range(1 - l, m):
        r = -q if q < 0 else 0
        yield q, r, (l + n - 1 if q <= m - l else m + n - 1 - q) - r


@lru_cache(maxsize=4096)
def _line_lengths(size: HexSize, element: str) -> tuple[int, ...]:
    """The lengths of the lines a plan of `size` in either mode of `element` reads, in order."""
    return tuple(length for _, _, length in _columns(*_SIDES[element]((size.l, size.m, size.n))))


@lru_cache(maxsize=4096)
def scan_lines(size: HexSize, mode: DirectionMode) -> ScanPlan:
    """Scan plan for the given size and mode.

    The canonical lines of the g-transformed size (`_columns`), each the
    cells (r, q) of one column q from the top, go through the affine map of
    g's inverse.  Each line's image starts at the image of its top cell and
    advances by the map's linear part applied to the column step (1, 0),
    one `step` for every line.  The canonical mode takes the same path with
    the identity, and both kinds take it alike; each line's reading
    orientation follows `_ODD_LINES_BACKWARD`.  No cell is built: the plan's
    `lines`, `reading` and `reader` are computed on first use.
    """
    g = mode.element
    target = transform_size(g, size)
    a, b, c, d, e, f = affine(invert(g), target)
    starts = tuple((a * r + b * q + e, c * r + d * q + f, length)
                   for q, r, length in _columns(target.l, target.m, target.n))
    k = len(starts)
    return ScanPlan(size, (a, c), starts, ((False, _ODD_LINES_BACKWARD[mode.kind]) * k)[:k])


@lru_cache(maxsize=None)  # one entry per pair of the 24 modes at most
def _carried_lines(
    d0: DirectionMode, d1: DirectionMode
) -> tuple[bool, tuple[tuple[bool, bool], tuple[bool, bool]]] | None:
    """How a pair search reads side 0, in mode `d0`, along `d1`'s plan: `(reversed, carried)`.

    Two modes read the same lines at every size exactly when d1's element
    after d0's inverse is R0 or r0, which keep the line order, or R3 or r3,
    which reverse it; None where it is another.  Where the order is
    reversed, side 0 is read as its reversal (`automata._reversal`): last
    line first and each line backwards, so at a size of K lines, line i of
    d1's plan is line K - 1 - i of d0's.  `carried[K % 2]` is the (even,
    odd) pattern of the lines of d1's plan that side 0 reads against d1's
    orientation.  Between two returning modes that is every line under r0
    (each line turned in place) and r3 (each line kept, and the reversal
    turns it), and none under R0 and R3.  A kind that reads
    odd lines backwards flips its own odd lines: d1's line i, and d0's line
    K - 1 - i, which is odd where i and K have the same parity.
    """
    relative = compose(d1.element, invert(d0.element))
    back0, back1 = _ODD_LINES_BACKWARD[d0.kind], _ODD_LINES_BACKWARD[d1.kind]
    if relative in ("R0", "r0"):
        flipped = relative == "r0"
        pattern = (flipped, flipped ^ back0 ^ back1)
        return False, (pattern, pattern)
    if relative in ("R3", "r3"):
        flipped = relative == "r3"
        return True, ((flipped ^ back0, flipped ^ back1), (flipped, flipped ^ back0 ^ back1))
    return None
