import pytest

from hexscan import (
    ALL_MODES,
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    RETURNING,
    canonical_mode,
    cell_count,
    modes_for_kind,
    parse_direction,
    scan_lines,
)
from hexscan.hexgrid import Cell, cells
from hexscan.symmetry import OP_NAMES


def all_small_sizes(limit):
    r = range(1, limit + 1)
    return [HexSize(l, m, n) for l in r for m in r for n in r]


def test_direction_codes_roundtrip():
    assert len(ALL_MODES) == 24
    for mode in ALL_MODES:
        assert parse_direction(mode.code) == mode
    assert parse_direction("B:R0") == canonical_mode(BOUSTROPHEDON)
    assert parse_direction("R:r5") == DirectionMode(RETURNING, "r5")
    for bad in ("X:R0", "B-R0", "B:R9", "R0"):
        with pytest.raises(ValueError):
            parse_direction(bad)


def test_canonical_plan_222():
    plan = scan_lines(HexSize(2, 2, 2), canonical_mode(RETURNING))
    assert plan.line_lengths == (2, 3, 2)
    # left line first, each line top to bottom
    assert plan.lines[0] == (Cell(1, -1), Cell(2, -1))
    assert plan.lines[1] == (Cell(0, 0), Cell(1, 0), Cell(2, 0))
    assert plan.lines[2] == (Cell(0, 1), Cell(1, 1))


def test_single_cell_every_mode():
    for mode in ALL_MODES:
        plan = scan_lines(HexSize(1, 1, 1), mode)
        assert plan.line_lengths == (1,)
        assert plan.lines[0] == (Cell(0, 0),)


def test_r3_mode_reverses_line_order():
    size = HexSize(3, 3, 3)
    canonical = scan_lines(size, canonical_mode(BOUSTROPHEDON))
    mirrored = scan_lines(size, DirectionMode(BOUSTROPHEDON, "r3"))
    assert mirrored.lines == tuple(reversed(canonical.lines))


def test_r0_mode_reverses_each_line():
    size = HexSize(3, 3, 3)
    canonical = scan_lines(size, canonical_mode(RETURNING))
    flipped = scan_lines(size, DirectionMode(RETURNING, "r0"))
    assert flipped.lines == tuple(tuple(reversed(line)) for line in canonical.lines)


@pytest.mark.parametrize("size", all_small_sizes(3))
def test_every_mode_covers_every_cell_once(size):
    want = set(cells(size))
    for mode in ALL_MODES:
        plan = scan_lines(size, mode)
        visited = plan.cells_in_order()
        assert len(visited) == cell_count(size)
        assert set(visited) == want
        lengths = plan.line_lengths
        assert lengths == lengths[::-1], "line lengths form a palindrome"


@pytest.mark.parametrize("size", all_small_sizes(3))
def test_lines_are_straight_and_maximal(size):
    # every line must advance along a single lattice direction; the three
    # families are r constant, q constant, and q+r constant
    for op in OP_NAMES:
        plan = scan_lines(size, DirectionMode(RETURNING, op))
        for line in plan.lines:
            if len(line) == 1:
                continue
            deltas = {
                (b.r - a.r, b.q - a.q) for a, b in zip(line, line[1:])
            }
            assert len(deltas) == 1
            delta = deltas.pop()
            assert delta in {(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)}


def test_kinds_share_plan_geometry():
    for op in OP_NAMES:
        for size in (HexSize(2, 2, 2), HexSize(2, 3, 1)):
            b = scan_lines(size, DirectionMode(BOUSTROPHEDON, op))
            r = scan_lines(size, DirectionMode(RETURNING, op))
            assert b.lines == r.lines


def test_plan_reads_odd_boustrophedon_lines_backwards():
    for mode in ALL_MODES:
        plan = scan_lines(HexSize(2, 3, 2), mode)
        assert len(plan.backward) == len(plan.reading) == plan.line_count
        for i, line in enumerate(plan.lines):
            backward = mode.kind == BOUSTROPHEDON and i % 2 == 1
            assert plan.backward[i] == backward
            assert plan.reading[i] == (line[::-1] if backward else line)
