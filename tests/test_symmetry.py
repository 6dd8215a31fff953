import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hexscan import (
    HexSize,
    apply_op,
    compose,
    invert,
    make_uniform,
    normal_form,
    transform_size,
)
from hexscan.symmetry import OP_NAMES, cell_map, check_op
from hexscan.hexgrid import Cell, cells

from conftest import cube_cell_map, evaluate_word, marker_picture

# full multiplication table, written out independently of compose();
# entry TABLE[g][h] is "h first, then g"
_COLS = "R0 R1 R2 R3 R4 R5 r0 r1 r2 r3 r4 r5".split()
_ROWS = """
R0 | R0 R1 R2 R3 R4 R5 r0 r1 r2 r3 r4 r5
R1 | R1 R2 R3 R4 R5 R0 r1 r2 r3 r4 r5 r0
R2 | R2 R3 R4 R5 R0 R1 r2 r3 r4 r5 r0 r1
R3 | R3 R4 R5 R0 R1 R2 r3 r4 r5 r0 r1 r2
R4 | R4 R5 R0 R1 R2 R3 r4 r5 r0 r1 r2 r3
R5 | R5 R0 R1 R2 R3 R4 r5 r0 r1 r2 r3 r4
r0 | r0 r5 r4 r3 r2 r1 R0 R5 R4 R3 R2 R1
r1 | r1 r0 r5 r4 r3 r2 R1 R0 R5 R4 R3 R2
r2 | r2 r1 r0 r5 r4 r3 R2 R1 R0 R5 R4 R3
r3 | r3 r2 r1 r0 r5 r4 R3 R2 R1 R0 R5 R4
r4 | r4 r3 r2 r1 r0 r5 R4 R3 R2 R1 R0 R5
r5 | r5 r4 r3 r2 r1 r0 R5 R4 R3 R2 R1 R0
""".strip().splitlines()

TABLE = {}
for line in _ROWS:
    row, entries = line.split("|")
    TABLE[row.strip()] = dict(zip(_COLS, entries.split()))


def test_compose_matches_published_table():
    for g in OP_NAMES:
        for h in OP_NAMES:
            assert compose(g, h) == TABLE[g][h], (g, h)


def test_compose_examples():
    assert compose("R1", "R1") == "R2"
    assert compose("r0", "r1") == "R5"
    for x in OP_NAMES:
        assert compose("R0", x) == x
        assert compose(x, "R0") == x


def test_invert():
    for op in OP_NAMES:
        assert compose(op, invert(op)) == "R0"
        assert compose(invert(op), op) == "R0"
    assert invert("r3") == "r3"
    assert invert("R0") == "R0"
    assert invert("R2") == "R4"


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        check_op("R6")
    with pytest.raises(ValueError):
        compose("R1", "x1")


@pytest.mark.parametrize("size", [HexSize(2, 2, 2), HexSize(3, 3, 3), HexSize(2, 3, 4)])
def test_composition_acts_pictorially(size):
    pic = marker_picture(size)
    for g, h in itertools.product(OP_NAMES, repeat=2):
        assert apply_op(compose(g, h), pic) == apply_op(g, apply_op(h, pic))


def test_identity_and_involutions():
    pic = marker_picture(HexSize(3, 3, 3))
    assert apply_op("R0", pic) == pic
    for i in range(6):
        r = f"r{i}"
        assert apply_op(r, apply_op(r, pic)) == pic


def test_r1_has_order_six():
    pic = marker_picture(HexSize(3, 3, 3))
    out = pic
    for k in range(1, 6):
        out = apply_op("R1", out)
        assert out != pic, f"R1^{k} fixed the marker picture"
    assert apply_op("R1", out) == pic


def test_transform_size_examples():
    assert transform_size("R0", HexSize(2, 3, 4)) == HexSize(2, 3, 4)
    assert transform_size("R3", HexSize(2, 3, 4)) == HexSize(2, 3, 4)
    # frozen from a marker-picture observation: R1 shifts sides cyclically
    assert transform_size("R1", HexSize(2, 3, 4)) == HexSize(3, 4, 2)
    assert transform_size("R1", HexSize(1, 2, 3)) == HexSize(2, 3, 1)


sides = st.integers(min_value=1, max_value=4)
size_st = st.builds(HexSize, sides, sides, sides)


@given(size_st, st.sampled_from(OP_NAMES))
@settings(max_examples=60, deadline=None)
def test_transform_size_agrees_with_pictorial_action(size, op):
    assert apply_op(op, marker_picture(size)).size == transform_size(op, size)


@given(size_st, st.sampled_from(OP_NAMES))
@settings(max_examples=60, deadline=None)
def test_apply_preserves_cell_multiset(size, op):
    pic = marker_picture(size)
    image = apply_op(op, pic)
    flat = sorted(s for row in pic.rows for s in row)
    flat_image = sorted(s for row in image.rows for s in row)
    assert flat == flat_image


def test_normal_form_words():
    words = {
        "R0": "r1 r1", "R1": "R1", "R2": "R1 R1", "R3": "R1 R1 R1",
        "R4": "R1 R1 R1 R1", "R5": "R1 R1 R1 R1 R1",
        "r0": "r1 R1", "r1": "r1", "r2": "r1 R1 R1 R1 R1 R1",
        "r3": "r1 R1 R1 R1 R1", "r4": "r1 R1 R1 R1", "r5": "r1 R1 R1",
    }
    for op in OP_NAMES:
        assert normal_form(op) == tuple(words[op].split()), op


def test_normal_forms_evaluate_pictorially():
    pic = marker_picture(HexSize(3, 3, 3))
    for op in OP_NAMES:
        assert evaluate_word(normal_form(op), pic) == apply_op(op, pic), op


def test_cell_map_is_bijection_onto_target():
    r = range(1, 6)
    for size in (HexSize(l, m, n) for l in r for m in r for n in r):
        for op in OP_NAMES:
            mapping = cell_map(op, size)
            assert set(mapping) == set(cells(size))
            assert set(mapping.values()) == set(cells(transform_size(op, size)))
            assert mapping == cube_cell_map(op, size), (op, size)
            assert all(type(c) is Cell for c in mapping.values())
