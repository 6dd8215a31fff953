import dataclasses

import pytest

from hexscan import (
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    RETURNING,
    canonical_mode,
    cell_count,
    exact_equivalent_for_size,
    make_uniform,
    modes_for_kind,
    parse_direction,
    run,
    scan_lines,
)
from hexscan.hexgrid import Cell, cells
from hexscan.langtools import _accepted_words
from hexscan.symmetry import OP_NAMES, invert, transform_size

from conftest import ALL_MODES, cube_cell_map, m_all, m_none, m_some

CB = canonical_mode(BOUSTROPHEDON)
# the largest size the reference pullback checks, in four modes
LARGE = HexSize(57, 58, 58)
LARGE_MODES = [parse_direction(c) for c in ("B:R1", "R:r4", "B:R0", "R:R3")]


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
    with pytest.raises(ValueError, match="^unknown scanner kind 'x'$"):
        DirectionMode("x", "R0")


def test_canonical_plan_222():
    plan = scan_lines(HexSize(2, 2, 2), canonical_mode(RETURNING))
    assert tuple(map(len, plan.lines)) == (2, 3, 2)
    # left line first, each line top to bottom
    assert plan.lines[0] == (Cell(1, -1), Cell(2, -1))
    assert plan.lines[1] == (Cell(0, 0), Cell(1, 0), Cell(2, 0))
    assert plan.lines[2] == (Cell(0, 1), Cell(1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.step = (0, 1)  # the cache hands one plan to every caller


def test_single_cell_every_mode():
    for mode in ALL_MODES:
        plan = scan_lines(HexSize(1, 1, 1), mode)
        assert tuple(map(len, plan.lines)) == (1,)
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
        visited = [c for line in plan.lines for c in line]
        assert len(visited) == cell_count(size)
        assert set(visited) == want
        lengths = tuple(map(len, plan.lines))
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
    # the two kinds of one element differ in reading orientation alone
    for op in OP_NAMES:
        for size in (HexSize(2, 2, 2), HexSize(2, 3, 1)):
            b = scan_lines(size, DirectionMode(BOUSTROPHEDON, op))
            r = scan_lines(size, DirectionMode(RETURNING, op))
            assert (b.step, b.starts, b.lines) == (r.step, r.starts, r.lines), (size, op)


def reference_plan(size, mode):
    """(lines, backward, reading) of a mode's plan, pulled back cell by cell.

    The canonical lines of the transformed size go through the inverse op's
    cube-formula cell map; shares no code with `scan_lines` or `cell_map`.
    """
    target = transform_size(mode.element, size)
    l, m, n = target.l, target.m, target.n
    back = cube_cell_map(invert(mode.element), target)
    lines = []
    for q in range(-(l - 1), m):
        rows = range(max(0, -q), min(l + n - 2, m + n - 2 - q) + 1)
        lines.append(tuple(back[Cell(r, q)] for r in rows))
    backward = tuple(mode.kind == BOUSTROPHEDON and i % 2 == 1 for i in range(len(lines)))
    reading = tuple(line[::-1] if b else line for line, b in zip(lines, backward))
    return tuple(lines), backward, reading


def test_plans_match_reference_pullback():
    cases = [(size, ALL_MODES) for size in all_small_sizes(6)] + [(LARGE, LARGE_MODES)]
    for size, modes in cases:
        for mode in modes:
            plan = scan_lines(size, mode)
            want = reference_plan(size, mode)
            assert (plan.lines, plan.backward, plan.reading) == want, (size, mode.code)
            # (r, q) == Cell(r, q), so equality alone would not catch a bare tuple
            for line in plan.lines + plan.reading:
                assert all(type(c) is Cell for c in line), (size, mode.code)


def test_plan_reads_odd_boustrophedon_lines_backwards():
    for mode in ALL_MODES:
        plan = scan_lines(HexSize(2, 3, 2), mode)
        assert len(plan.backward) == len(plan.reading) == len(plan.lines)
        for i, line in enumerate(plan.lines):
            backward = mode.kind == BOUSTROPHEDON and i % 2 == 1
            assert plan.backward[i] == backward
            assert plan.reading[i] == (line[::-1] if backward else line)


@pytest.mark.parametrize("size", all_small_sizes(4) + [LARGE])
def test_reader_gives_each_line_in_reading_order_then_the_border(size):
    # a run reads one word, L1 # L2 # ... LK #; position n stands for `#`.
    # The expected word comes from the reference pullback, not from the plan
    n = cell_count(size)
    position = {cell: i for i, cell in enumerate(cells(size))}
    for mode in LARGE_MODES if size == LARGE else ALL_MODES:
        plan = scan_lines(size, mode)
        _, _, reading = reference_plan(size, mode)
        want = []
        for line in reading:
            want += [position[cell] for cell in line] + [n]
        word = plan.reader(range(n + 1))
        assert type(word) is tuple and list(word) == want, (size, mode.code)
        assert word.count(n) == len(reading), (size, mode.code)


def test_an_untraced_run_builds_no_cell():
    # an untraced run and the enumeration oracle read only a plan's reader;
    # its lines and reading are built where a trace or a witness asks
    scan_lines.cache_clear()
    sizes = [HexSize(1, 1, 1), HexSize(2, 3, 2), HexSize(3, 2, 4), HexSize(5, 4, 6)]
    for size in sizes:
        for mode in ALL_MODES:
            assert run(m_all(mode.kind), make_uniform(size, "a"), mode)
            assert _accepted_words(m_none(mode.kind), size, mode, ("a", "b")) == []
    for size in sizes:
        for mode in ALL_MODES:
            plan = scan_lines(size, mode)
            assert "reader" in plan.__dict__, (size, mode.code)
            assert not {"lines", "reading"} & plan.__dict__.keys(), (size, mode.code)
    # a trace and a witness still read the reference cells
    size = sizes[2]
    for mode in ALL_MODES:
        _, trace = run(m_all(mode.kind), make_uniform(size, "a"), mode, trace=True)
        _, _, reading = reference_plan(size, mode)
        assert [s.cell for s in trace.steps] == [c for line in reading for c in (*line, None)]
    size = sizes[3]
    for kind in (BOUSTROPHEDON, RETURNING):
        for element in ("R0", "r3"):
            other = DirectionMode(kind, element)
            witness = exact_equivalent_for_size(m_some(), CB, m_none(kind), other, size)
            assert witness is not None and run(m_some(), witness, CB), other.code
    read = 0
    for mode in ALL_MODES:
        plan = scan_lines(size, mode)
        if "reading" in plan.__dict__:
            read += 1
            assert plan.reading == reference_plan(size, mode)[2], mode.code
    assert read
