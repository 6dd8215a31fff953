import itertools

import pytest
from hypothesis import given, strategies as st

from hexscan import (
    HexPicture,
    HexSize,
    ReservedSymbolError,
    cell_count,
    make_uniform,
    parse_picture,
    render_ascii,
    row_widths,
    serialize_picture,
)
from hexscan.hexgrid import (
    Cell,
    FormatError,
    cells,
    offset,
    picture_from_cells,
)

from conftest import hexagon_cells_oracle, marker_picture, symbol_at

sides = st.integers(min_value=1, max_value=5)
sizes = st.builds(HexSize, sides, sides, sides)


def test_row_widths_examples():
    assert row_widths(HexSize(3, 3, 3)) == [3, 4, 5, 4, 3]
    assert row_widths(HexSize(1, 1, 1)) == [1]
    # frozen from the boundary-walk oracle; sums to 18
    assert row_widths(HexSize(2, 3, 4)) == [3, 4, 4, 4, 3]
    assert sum(row_widths(HexSize(2, 3, 4))) == 18


def test_cell_count_examples():
    assert cell_count(HexSize(3, 3, 3)) == 19
    for m in range(1, 6):
        assert cell_count(HexSize(1, m, 1)) == m
    assert cell_count(HexSize(2, 2, 2)) == 7
    assert sum(row_widths(HexSize(2, 2, 2))) == 2 + 3 + 2


@given(sizes)
def test_widths_match_boundary_walk_oracle(size):
    oracle = hexagon_cells_oracle(size.l, size.m, size.n)
    got = set(cells(size))
    # the oracle walk starts at the top-left corner (0, 0)
    assert got == oracle
    assert cell_count(size) == len(oracle)


@given(sizes)
def test_widths_sum_and_palindrome(size):
    widths = row_widths(size)
    assert sum(widths) == cell_count(size)
    assert widths == widths[::-1]
    assert len(widths) == size.row_count


def test_invalid_sizes_rejected():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 3, 3)]:
        with pytest.raises(ValueError):
            HexSize(*bad)


def test_make_uniform_and_reserved_symbols():
    p = make_uniform(HexSize(2, 3, 4), "a")
    assert cell_count(p.size) == 18
    assert all(sym == "a" for row in p.rows for sym in row)
    for reserved in ("#", "_"):
        with pytest.raises(ReservedSymbolError):
            make_uniform(HexSize(2, 2, 2), reserved)
    for not_a_token in ("", "a b"):
        with pytest.raises(ValueError, match="^cell symbol must be a non-empty token"):
            make_uniform(HexSize(2, 2, 2), not_a_token)


def _bordered_symbol(p, cell):
    """The bordered picture's symbol at `cell`, one cell at a time.

    The ring is every cell on one of the six sides of the (l+1, m+1, n+1)
    hexagon; any other cell (r, q) shows the inner picture's (r-1, q).
    """
    s = p.size
    r, q = cell
    on_ring = (r == 0 or r == s.l + s.n or q == -s.l or q == s.m
               or q + r == 0 or q + r == s.m + s.n)
    return "#" if on_ring else symbol_at(p, Cell(r - 1, q))


def _grown(size):
    return HexSize(size.l + 1, size.m + 1, size.n + 1)


def _bordered_rows(p):
    """The rows of `render_ascii(p, with_border=True)`, each as its tokens."""
    return [tuple(line.split()) for line in render_ascii(p, with_border=True).splitlines()]


def _bordered_layout(p):
    """The grown size's own rendering, its ring cells holding a stand-in for `#`."""
    big = _grown(p.size)
    stand_in = {c: _bordered_symbol(p, c).replace("#", "X") for c in cells(big)}
    return render_ascii(picture_from_cells(big, stand_in)).replace("X", "#")


def test_bordered_size_and_ring():
    p = make_uniform(HexSize(2, 2, 2), "a")
    rows = _bordered_rows(p)
    assert [len(row) for row in rows] == row_widths(HexSize(3, 3, 3))
    ring = [c for c in cells(HexSize(3, 3, 3)) if _bordered_symbol(p, c) == "#"]
    assert len(ring) == cell_count(HexSize(3, 3, 3)) - cell_count(HexSize(2, 2, 2)) == 12
    assert sum(row.count("#") for row in rows) == 12
    # the rendered rows against the per-cell reference, with a distinct symbol
    # in every inner cell so that any misplaced cell shows, and laid out as
    # the grown size is
    for size in itertools.starmap(HexSize, itertools.product(range(1, 5), repeat=3)):
        p = marker_picture(size)
        rows = _bordered_rows(p)
        assert [len(row) for row in rows] == row_widths(_grown(size)), size
        want = [_bordered_symbol(p, c) for c in cells(_grown(size))]
        assert list(itertools.chain.from_iterable(rows)) == want, size
        assert render_ascii(p, with_border=True) == _bordered_layout(p), size


@given(sizes)
def test_bordered_grows_each_side(size):
    p = make_uniform(size, "x")
    assert [len(row) for row in _bordered_rows(p)] == row_widths(_grown(size))
    assert render_ascii(p, with_border=True) == _bordered_layout(p)


@given(st.builds(HexSize, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       st.integers(0, 2**30), st.integers(1, 3))
def test_parse_serialize_roundtrip(size, seed, nsyms):
    alphabet = ["a", "b", "c"][:nsyms]
    import random

    rng = random.Random(seed)
    p = picture_from_cells(size, {c: rng.choice(alphabet) for c in cells(size)})
    assert parse_picture(serialize_picture(p)) == p


def test_serialize_format_exact():
    p = make_uniform(HexSize(1, 2, 1), "a")
    assert serialize_picture(p) == "%HXP 1\nsize: 1 2 1\nrow: a a\n"


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_picture("nope\n")
    with pytest.raises(FormatError):
        parse_picture("%HXP 1\nsize: 3 3\nrow: a\n")
    # row count mismatch: (3,3,3) needs 5 rows
    text = "%HXP 1\nsize: 3 3 3\n" + "row: a a a\n" * 4
    with pytest.raises(FormatError):
        parse_picture(text)
    # width mismatch: middle row of (3,3,3) needs 5 cells
    text = (
        "%HXP 1\nsize: 3 3 3\n"
        "row: a a a\nrow: a a a a\nrow: a a a a\nrow: a a a a\nrow: a a a\n"
    )
    with pytest.raises(FormatError):
        parse_picture(text)
    with pytest.raises(FormatError):
        parse_picture("%HXP 1\nsize: 1 1 1\nrow: #\n")
    cases = [
        ("%HXP 1\nrow: a\n", "expected 'size: L M N' on line 2"),
        ("%HXP 1\nsize: 1 x 1\nrow: a\n", "bad size line: "),
        ("%HXP 1\nsize: 1 1 1\ncol: a\n", "row line 0 must start with 'row:'"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as info:
            parse_picture(text)
        assert str(info.value).startswith(message), (message, str(info.value))


def test_parse_ignores_trailing_blank_lines():
    text = serialize_picture(make_uniform(HexSize(2, 2, 2), "a")) + "\n\n"
    assert parse_picture(text) == make_uniform(HexSize(2, 2, 2), "a")


def test_render_ascii_shapes():
    p = make_uniform(HexSize(3, 3, 3), "a")
    plain = render_ascii(p)
    assert len(plain.splitlines()) == 5
    assert plain.splitlines()[0] == "  a a a"
    framed = render_ascii(p, with_border=True)
    lines = framed.splitlines()
    assert len(lines) == 7
    assert lines == [
        "   # # # #",
        "  # a a a #",
        " # a a a a #",
        "# a a a a a #",
        " # a a a a #",
        "  # a a a #",
        "   # # # #",
    ]
    assert render_ascii(make_uniform(HexSize(1, 1, 1), "z")) == "z"


def test_picture_shape_validation():
    with pytest.raises(ValueError):
        HexPicture(HexSize(2, 2, 2), (("a", "a"), ("a", "a"), ("a", "a")))
    with pytest.raises(ValueError):
        HexPicture(HexSize(2, 2, 2), (("a", "a"),))
