"""The 12-element point group of the hexagon acting on hexagonal pictures.

Operations are named R0..R5 (rotations by multiples of 60 degrees, R0 the
identity) and r0..r5 (reflections, axes 30 degrees apart).  Each is defined
as a signed permutation of cube coordinates (x, y, z) = (q, -q-r, r).  On the
cells of a given size it acts as one integer affine map of (r, q), which
`affine` gives: the permutation read in (r, q) is its linear part, and a
translation puts the image hexagon in canonical position.  So all actions are
exact cell relabelings.

Anchoring:

  * r0 maps every {q constant} scan line to itself, reversing it.
  * r3 reverses the left-to-right order of the {q constant} lines while
    keeping the top-to-bottom orientation within each line.
  * R1 is the 60-degree rotation with r1 = R1 after r0; R3 = r0 after r3 is
    the central 180-degree rotation.

The signed permutations are the group's only definition: the op names, the
product table behind `compose` (h first, then g), `invert` and the normal
forms are all computed from them.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain

from .hexgrid import Cell, HexPicture, HexSize, cells, picture_from_cells

OpWord = tuple[str, ...]

# Signed cube-coordinate permutations: (indices, negate) with
# image[i] = (-1 if negate else 1) * source[indices[i]].
_CUBE_MAPS: dict[str, tuple[tuple[int, int, int], bool]] = {
    "R0": ((0, 1, 2), False),
    "R1": ((1, 2, 0), True),
    "R2": ((2, 0, 1), False),
    "R3": ((0, 1, 2), True),
    "R4": ((1, 2, 0), False),
    "R5": ((2, 0, 1), True),
    "r0": ((0, 2, 1), False),
    "r1": ((2, 1, 0), True),
    "r2": ((1, 0, 2), False),
    "r3": ((0, 2, 1), True),
    "r4": ((2, 1, 0), False),
    "r5": ((1, 0, 2), True),
}
OP_NAMES: tuple[str, ...] = tuple(_CUBE_MAPS)

# The cube coordinates x = q, y = -q-r, z = r, each as its (r, q) coefficients
_CUBE_AXES = ((0, 1), (-1, -1), (1, 0))


def _linear(perm: tuple[int, int, int], negate: bool) -> tuple[int, int, int, int]:
    """(a, b, c, d): the image's z = r is a*r + b*q and its x = q is c*r + d*q."""
    sign = -1 if negate else 1
    (a, b), (c, d) = _CUBE_AXES[perm[2]], _CUBE_AXES[perm[0]]
    return sign * a, sign * b, sign * c, sign * d


# Each op's linear part on (r, q), built once from its cube permutation
_LINEAR: dict[str, tuple[int, int, int, int]] = {op: _linear(*m) for op, m in _CUBE_MAPS.items()}


def check_op(op: str) -> str:
    if op not in _CUBE_MAPS:
        raise ValueError(f"unknown symmetry op {op!r}; expected one of {', '.join(OP_NAMES)}")
    return op


# The group law, read off the cube maps: applying h, then g, takes source
# index ph[pg[i]] to image index i, negated when exactly one of them negates.
_NAMES = {m: op for op, m in _CUBE_MAPS.items()}
_PRODUCT: dict[tuple[str, str], str] = {
    (g, h): _NAMES[tuple(ph[i] for i in pg), ng != nh]
    for g, (pg, ng) in _CUBE_MAPS.items() for h, (ph, nh) in _CUBE_MAPS.items()
}
_INVERSE: dict[str, str] = {g: h for (g, h), gh in _PRODUCT.items() if gh == "R0"}


def compose(g: str, h: str) -> str:
    """The op equal to applying h first, then g."""
    return _PRODUCT[check_op(g), check_op(h)]


def invert(op: str) -> str:
    return _INVERSE[check_op(op)]


# Normal forms over {R1, r1}, written outermost first: R1^k for the rotations
# (R0 is r1 r1) and r1 R1^k for the reflections, each filed under the op it
# evaluates to, `reduce(compose, word, "R0")`: its rightmost letter first.
_WORDS = {reduce(compose, word, "R0"): word for word in (
    ("r1", "r1"), *(("R1",) * k for k in range(1, 6)), *(("r1",) + ("R1",) * k for k in range(6)))}


def normal_form(op: str) -> OpWord:
    """Word over {R1, r1} equal to op; leftmost letter is applied last."""
    return _WORDS[check_op(op)]


def transform_size(op: str, size: HexSize) -> HexSize:
    """Size of the image of a picture of the given size under op.

    The extents along the three axis families (l+m-1, m+n-1, l+n-1) permute
    with the cube axes; solving the permuted extents recovers the sides.
    """
    check_op(op)
    l, m, n = size.l, size.m, size.n
    extents = (l + m - 1, m + n - 1, l + n - 1)
    perm, _ = _CUBE_MAPS[op]
    ex, ey, ez = (extents[perm[0]], extents[perm[1]], extents[perm[2]])
    return HexSize((ex + ez - ey + 1) // 2, (ex + ey - ez + 1) // 2, (ey + ez - ex + 1) // 2)


def affine(op: str, size: HexSize) -> tuple[int, int, int, int, int, int]:
    """Op's action on the cells of `size` as an integer affine map of (r, q).

    Returns (a, b, c, d, e, f): cell (r, q) goes to
    (a*r + b*q + e, c*r + d*q + f), a cell of `transform_size(op, size)`.
    The linear part is op's cube permutation read in (r, q).  The translation
    puts the image in canonical position, where its z = r and its -y = q + r
    both have minimum 0.  A linear map takes its minimum over a hexagon at a
    corner, so the ranges of x, y and z over the six corners give both.
    """
    a, b, c, d = _LINEAR[check_op(op)]
    perm, negate = _CUBE_MAPS[op]
    l, m, n = size.l, size.m, size.n
    low, high = (1 - l, 2 - m - n, 0), (m - 1, 0, l + n - 2)
    if negate:
        low, high = (-high[0], -high[1], -high[2]), (-low[0], -low[1], -low[2])
    e = -low[perm[2]]
    return a, b, c, d, e, high[perm[1]] - e


def cell_map(op: str, size: HexSize) -> dict[Cell, Cell]:
    """Bijection from cells of `size` onto cells of `transform_size(op, size)`.

    The image hexagon sits in canonical position (rows from 0, leftmost
    column -(l'-1)); that translation is unique, which makes the maps compose
    exactly with `compose`.
    """
    a, b, c, d, e, f = affine(op, size)
    return {cell: Cell(a * cell.r + b * cell.q + e, c * cell.r + d * cell.q + f)
            for cell in cells(size)}


def apply_op(op: str, picture: HexPicture) -> HexPicture:
    """The geometrically transformed picture (pure cell relabeling)."""
    mapping = cell_map(op, picture.size)
    image = {mapping[cell]: sym for cell, sym in zip(cells(picture.size), chain(*picture.rows))}
    return picture_from_cells(transform_size(op, picture.size), image)
