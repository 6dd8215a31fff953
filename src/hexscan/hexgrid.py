"""Hexagonal picture model: sizes, cells, pictures, text I/O and ASCII rendering.

A hexagonal picture of size (l, m, n) is a hexagon-shaped arrangement of
symbols on a triangular lattice, where l, m, n are the lengths of the
upper-left, top, and upper-right sides (opposite sides are equal).

Cells are addressed by axial coordinates (r, q):

  * r is the row index, 0-based from the top; there are l+n-1 rows.
  * q is the axial column; row r spans q = offset(r) .. offset(r)+width(r)-1
    with offset(r) = -min(r, l-1).

A pair (r, q) lies inside the hexagon iff

  0 <= r <= l+n-2,   -(l-1) <= q <= m-1,   0 <= q+r <= m+n-2,

which makes the three lattice line families exactly {r constant},
{q constant} and {q+r constant}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

BORDER_SYMBOL = "#"
ERASED_SYMBOL = "_"
RESERVED_SYMBOLS = frozenset({BORDER_SYMBOL, ERASED_SYMBOL})


class FormatError(ValueError):
    """Raised when a picture or automaton text file is malformed."""


class ReservedSymbolError(ValueError):
    """Raised when a reserved symbol is used as a picture cell."""


@dataclass(frozen=True)
class HexSize:
    """Side-length triple (l, m, n) of a hexagonal picture."""

    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for name, value in (("l", self.l), ("m", self.m), ("n", self.n)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"side {name} must be a positive integer, got {value!r}")

    @property
    def row_count(self) -> int:
        return self.l + self.n - 1

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.n)

    def __str__(self) -> str:
        return f"({self.l},{self.m},{self.n})"


class Cell(NamedTuple):
    """Axial cell coordinate (row r from top, axial column q)."""

    r: int
    q: int


def offset(size: HexSize, r: int) -> int:
    """Leftmost axial column of row r."""
    return -min(r, size.l - 1)


def row_width(size: HexSize, r: int) -> int:
    """Number of cells in row r."""
    return size.m + min(r + 1, size.l, size.n, size.l + size.n - 1 - r) - 1


def row_widths(size: HexSize) -> list[int]:
    """Widths of all rows, top to bottom."""
    return [row_width(size, r) for r in range(size.row_count)]


def cell_count(size: HexSize) -> int:
    """Total number of cells: l*m + m*n + n*l - l - m - n + 1."""
    l, m, n = size.l, size.m, size.n
    return l * m + m * n + n * l - l - m - n + 1


def cells(size: HexSize) -> Iterator[Cell]:
    """All cells in row-major order (top row first, left to right)."""
    for r in range(size.row_count):
        start = offset(size, r)
        for q in range(start, start + row_width(size, r)):
            yield Cell(r, q)


def _check_symbol(symbol: str) -> str:
    if not isinstance(symbol, str) or not symbol or any(ch.isspace() for ch in symbol):
        raise ValueError(f"cell symbol must be a non-empty token, got {symbol!r}")
    if symbol in RESERVED_SYMBOLS:
        raise ReservedSymbolError(f"symbol {symbol!r} is reserved")
    return symbol


@dataclass(frozen=True)
class HexPicture:
    """Immutable hexagonal picture: a jagged grid of symbol tokens.

    `rows[r]` holds the symbols of row r, left to right; row r has exactly
    `row_width(size, r)` entries.  The reserved tokens `#` (border) and `_`
    (erased marker) may never appear as cells.
    """

    size: HexSize
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        widths = row_widths(self.size)
        if len(self.rows) != len(widths):
            raise ValueError(
                f"size {self.size} needs {len(widths)} rows, got {len(self.rows)}"
            )
        for r, (row, want) in enumerate(zip(self.rows, widths)):
            if len(row) != want:
                raise ValueError(f"row {r} must have {want} cells, got {len(row)}")
            for symbol in row:
                _check_symbol(symbol)

    # Computed once per picture, so the runs of every mode and machine share
    # them; the rows are immutable, so neither can go stale.
    @cached_property
    def row_major_word(self) -> tuple[str, ...]:
        """The picture's symbols in row-major order, then `#`: what a plan's `reader` reads."""
        return (*chain.from_iterable(self.rows), BORDER_SYMBOL)

    @cached_property
    def symbols(self) -> frozenset[str]:
        """The distinct symbols of the picture's cells."""
        return frozenset(chain.from_iterable(self.rows))


def make_uniform(size: HexSize, symbol: str) -> HexPicture:
    """Picture of the given size with every cell holding `symbol`."""
    _check_symbol(symbol)
    return HexPicture(size, tuple(tuple([symbol] * w) for w in row_widths(size)))


def picture_from_cells(size: HexSize, assignment: dict[Cell, str]) -> HexPicture:
    """Build a picture from a complete cell-to-symbol mapping."""
    rows = []
    for r in range(size.row_count):
        start = offset(size, r)
        rows.append(tuple(assignment[Cell(r, q)] for q in range(start, start + row_width(size, r))))
    return HexPicture(size, tuple(rows))


# --- text format -----------------------------------------------------------
#
# %HXP 1
# size: L M N
# row: tok tok ...     (one line per row, width(r) whitespace-separated tokens)

HXP_HEADER = "%HXP 1"


def parse_picture(text: str) -> HexPicture:
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if not lines or lines[0] != HXP_HEADER:
        raise FormatError(f"expected header {HXP_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("size:"):
        raise FormatError("expected 'size: L M N' on line 2")
    parts = lines[1][len("size:"):].split()
    if len(parts) != 3:
        raise FormatError("size line must have three integers")
    try:
        l, m, n = (int(p) for p in parts)
        size = HexSize(l, m, n)
    except ValueError as exc:
        raise FormatError(f"bad size line: {exc}") from None
    body = lines[2:]
    # compared before any per-row work, which grows with the declared size
    if len(body) != size.row_count:
        raise FormatError(f"size {size} needs {size.row_count} row lines, got {len(body)}")
    widths = row_widths(size)
    rows = []
    for r, line in enumerate(body):
        if not line.startswith("row:"):
            raise FormatError(f"row line {r} must start with 'row:'")
        tokens = line[len("row:"):].split()
        if len(tokens) != widths[r]:
            raise FormatError(f"row {r} must have {widths[r]} cells, got {len(tokens)}")
        for tok in tokens:
            if tok in RESERVED_SYMBOLS:
                raise FormatError(f"reserved symbol {tok!r} in row {r}")
        rows.append(tuple(tokens))
    return HexPicture(size, tuple(rows))


def serialize_picture(picture: HexPicture) -> str:
    s = picture.size
    lines = [HXP_HEADER, f"size: {s.l} {s.m} {s.n}"]
    lines.extend("row: " + " ".join(row) for row in picture.rows)
    return "\n".join(lines) + "\n"


def render_ascii(picture: HexPicture, with_border: bool = False) -> str:
    """Render rows with indentation so the hexagonal outline is visible.

    `with_border` adds the one-cell ring of `#`: the size grows to
    (l+1, m+1, n+1), a full row of `#` above and below, and one `#` at each
    end of every inner row.  Row r's leftmost cell sits at horizontal
    position q + r/2; with one character per half-cell step that is
    r - 2*min(r, l-1) half-steps.
    """
    l, rows = picture.size.l, picture.rows
    if with_border:
        edge = (BORDER_SYMBOL,) * (picture.size.m + 1)
        l, rows = l + 1, (edge, *((BORDER_SYMBOL, *row, BORDER_SYMBOL) for row in rows), edge)
    cell_w = max(len(tok) for row in rows for tok in row)
    half = (cell_w + 1) / 2
    lefts = [r - 2 * min(r, l - 1) for r in range(len(rows))]
    low = min(lefts)
    out = []
    for left, row in zip(lefts, rows):
        indent = " " * round((left - low) * half)
        out.append(indent + " ".join(tok.ljust(cell_w) for tok in row).rstrip())
    return "\n".join(out)
