"""Direction modes and scan plans.

A scan plan decomposes a hexagon into the {q constant} family of lines.  The
canonical plan visits lines left to right (q = -(l-1) .. m-1), each line top
to bottom.  A mode carries a scanner kind plus a symmetry op g; its plan is
the canonical plan of the g-transformed size pulled back through g's inverse,
so scanning a picture in mode g visits the same symbols, in the same order,
as scanning the g-image canonically.

Mode codes are `B:<op>` (boustrophedon) and `R:<op>` (returning), 24 total.
The two kinds share plan geometry; only the run semantics differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hexgrid import Cell, HexSize
from .symmetry import OP_NAMES, cell_map, check_op, invert, transform_size

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

    @property
    def is_canonical(self) -> bool:
        return self.element == "R0"


def parse_direction(code: str) -> DirectionMode:
    head, sep, op = code.partition(":")
    if not sep or head not in _PREFIX_KIND:
        raise ValueError(f"bad direction code {code!r}; expected B:<op> or R:<op>")
    return DirectionMode(_PREFIX_KIND[head], check_op(op))


def canonical_mode(kind: str) -> DirectionMode:
    return DirectionMode(kind, "R0")


def modes_for_kind(kind: str) -> tuple[DirectionMode, ...]:
    return tuple(DirectionMode(kind, op) for op in OP_NAMES)


ALL_MODES: tuple[DirectionMode, ...] = modes_for_kind(BOUSTROPHEDON) + modes_for_kind(RETURNING)


@dataclass(frozen=True)
class ScanPlan:
    """An ordered decomposition of a hexagon's cells into straight lines."""

    size: HexSize
    lines: tuple[tuple[Cell, ...], ...]

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def line_lengths(self) -> tuple[int, ...]:
        return tuple(len(line) for line in self.lines)

    def cells_in_order(self) -> tuple[Cell, ...]:
        return tuple(c for line in self.lines for c in line)


def _canonical_lines(size: HexSize) -> tuple[tuple[Cell, ...], ...]:
    l, m, n = size.l, size.m, size.n
    lines = []
    for q in range(-(l - 1), m):
        r_lo = max(0, -q)
        r_hi = min(l + n - 2, m + n - 2 - q)
        lines.append(tuple(Cell(r, q) for r in range(r_lo, r_hi + 1)))
    return tuple(lines)


@lru_cache(maxsize=4096)
def scan_lines(size: HexSize, mode: DirectionMode) -> ScanPlan:
    """Scan plan for the given size and mode (plan geometry ignores kind)."""
    if mode.is_canonical:
        return ScanPlan(size, _canonical_lines(size))
    g = mode.element
    transformed = transform_size(g, size)
    back = cell_map(invert(g), transformed)
    lines = tuple(
        tuple(back[c] for c in line) for line in _canonical_lines(transformed)
    )
    return ScanPlan(size, lines)


def linearization_shape(size: HexSize, mode: DirectionMode) -> tuple[tuple[int, ...], int]:
    """(line lengths, number of border reads) of a run at this size and mode.

    A run consumes the lines' cells with one trailing border symbol per line,
    so the consumed string has shape a^w1 # a^w2 # ... # a^wK #.
    """
    plan = scan_lines(size, mode)
    return plan.line_lengths, plan.line_count

