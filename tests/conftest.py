"""Shared builders: reference machines, random automaton pools, oracles."""

from __future__ import annotations

import random

import pytest

from hexscan import (BORDER_SYMBOL, BOUSTROPHEDON, RETURNING, HexSize, apply_op, automaton,
                     modes_for_kind, transform_size)
from hexscan.hexgrid import Cell, cells, offset, picture_from_cells

# The 24 direction modes: the 12 boustrophedon ones, then the 12 returning ones
ALL_MODES = modes_for_kind(BOUSTROPHEDON) + modes_for_kind(RETURNING)


def is_rotation(op: str) -> bool:
    """True for the rotations R0..R5, False for the reflections r0..r5."""
    return op[0] == "R"


def marker_picture(size: HexSize):
    """Picture with a distinct symbol in every cell (detects any relabeling)."""
    return picture_from_cells(size, {c: f"c{i}" for i, c in enumerate(cells(size))})


def symbol_at(picture, cell: Cell) -> str:
    """The picture's symbol at `cell`: entry q - offset(r) of row r."""
    r, q = cell
    return picture.rows[r][q - offset(picture.size, r)]


def evaluate_word(word, picture):
    """Apply a word over the op names, rightmost letter first."""
    for op in reversed(word):
        picture = apply_op(op, picture)
    return picture


def is_deterministic(a) -> bool:
    """True iff no state has two value rules on one symbol, nor two border rules."""
    value_keys = [(p, sym) for p, sym, _ in a.value_rules]
    border_keys = [p for p, _ in a.border_rules]
    return len(set(value_keys)) == len(value_keys) and len(set(border_keys)) == len(border_keys)


def expected_output_states(construction: str, a) -> int:
    """The state count a construction, by its CLI name, builds for `a` (README's formulas)."""
    n, f, b = len(a.states), len(a.forward_states), len(a.backward_states)
    return {"hbfa-to-hrfa": 1 + f + b**3, "mirror-within-lines": n**3 + 1,
            "mirror-line-order": n**3 + 3, "point-reflection": n + 2}[construction]


def hexagon_cells_oracle(l: int, m: int, n: int) -> set[Cell]:
    """Independent construction of the hexagon's cell set.

    Walks the six sides as lattice steps from a corner, checks the walk
    closes, then flood-fills the boundary.  Shares no formulas with the
    row-width implementation.
    """
    steps = (
        [(0, 1)] * (m - 1)      # top side, left to right
        + [(1, 0)] * (n - 1)    # upper-right side going down
        + [(1, -1)] * (l - 1)   # lower-right side
        + [(0, -1)] * (m - 1)   # bottom side, right to left
        + [(-1, 0)] * (n - 1)   # lower-left side going up
        + [(-1, 1)] * (l - 1)   # upper-left side
    )
    at = (0, 0)
    boundary = {at}
    for dr, dq in steps:
        at = (at[0] + dr, at[1] + dq)
        boundary.add(at)
    assert at == (0, 0), "side walk must close"
    # flood fill from just inside the boundary (scan rows between walls)
    rows: dict[int, list[int]] = {}
    for r, q in boundary:
        rows.setdefault(r, []).append(q)
    filled = set()
    for r, qs in rows.items():
        for q in range(min(qs), max(qs) + 1):
            filled.add(Cell(r, q))
    return filled


# Each op as a signed permutation of cube coordinates (x, y, z) = (q, -q-r, r):
# (indices, negate), with image[i] = (-1 if negate else 1) * source[indices[i]].
CUBE_MAPS = {
    "R0": ((0, 1, 2), False), "R1": ((1, 2, 0), True), "R2": ((2, 0, 1), False),
    "R3": ((0, 1, 2), True), "R4": ((1, 2, 0), False), "R5": ((2, 0, 1), True),
    "r0": ((0, 2, 1), False), "r1": ((2, 1, 0), True), "r2": ((1, 0, 2), False),
    "r3": ((0, 2, 1), True), "r4": ((2, 1, 0), False), "r5": ((1, 0, 2), True),
}


def cube_cell_map(op: str, size: HexSize) -> dict[Cell, tuple[int, int]]:
    """op's cell map, one cell at a time through its cube permutation.

    Each image is translated so the target hexagon's rows start at 0 and its
    leftmost column is -(l'-1), l' taken from `transform_size`.
    """
    perm, negate = CUBE_MAPS[op]
    sign = -1 if negate else 1
    raw = {}
    for cell in cells(size):
        cube = (cell.q, -cell.q - cell.r, cell.r)
        raw[cell] = (sign * cube[perm[2]], sign * cube[perm[0]])
    dr = -min(r for r, _ in raw.values())
    dq = -(transform_size(op, size).l - 1) - min(q for _, q in raw.values())
    return {cell: (r + dr, q + dq) for cell, (r, q) in raw.items()}


def m_all(kind=BOUSTROPHEDON, alphabet=("a", "b")):
    """Accepts every picture: one forward and one backward state, all final."""
    rules = [("f", s, "f") for s in alphabet] + [("b", s, "b") for s in alphabet]
    return automaton(kind, ["f"], ["b"], alphabet, rules,
                     [("f", "b"), ("b", "f")], "f", ["f", "b"])


def m_none(kind=BOUSTROPHEDON, alphabet=("a", "b")):
    a = m_all(kind, alphabet)
    return automaton(a.kind, a.forward_states, a.backward_states, a.alphabet,
                     a.value_rules, a.border_rules, a.start, [])


def m_some(symbol="a", alphabet=("a", "b")):
    """Accepts iff some cell holds `symbol`: states f0/b0 before it, f1/b1 after."""
    vr = []
    for s in alphabet:
        vr += [("f1", s, "f1"), ("b1", s, "b1")]
        vr += [("f0", s, "f1" if s == symbol else "f0"), ("b0", s, "b1" if s == symbol else "b0")]
    br = [("f0", "b0"), ("f1", "b1"), ("b0", "f0"), ("b1", "f1")]
    return automaton(BOUSTROPHEDON, ["f0", "f1"], ["b0", "b1"], alphabet,
                     vr, br, "f0", ["f1", "b1"])


def m_at_most(most, symbol="b", alphabet=("a", "b")):
    """Accepts iff at most `most` cells hold `symbol`: states f<i>/b<i> count them."""
    vr, br = [], []
    for i in range(most + 1):
        for side in "fb":
            for s in alphabet:
                if s != symbol:
                    vr.append((f"{side}{i}", s, f"{side}{i}"))
                elif i < most:
                    vr.append((f"{side}{i}", s, f"{side}{i + 1}"))
        br += [(f"f{i}", f"b{i}"), (f"b{i}", f"f{i}")]
    fwd = [f"f{i}" for i in range(most + 1)]
    bwd = [f"b{i}" for i in range(most + 1)]
    return automaton(BOUSTROPHEDON, fwd, bwd, alphabet, vr, br, "f0", fwd + bwd)


def m_parity(alphabet=("a",)):
    """Accepts iff the number of cells read is even."""
    vr = []
    for s in alphabet:
        vr += [("fe", s, "fo"), ("fo", s, "fe"), ("be", s, "bo"), ("bo", s, "be")]
    br = [("fe", "be"), ("fo", "bo"), ("be", "fe"), ("bo", "fo")]
    return automaton(BOUSTROPHEDON, ["fe", "fo"], ["be", "bo"], alphabet,
                     vr, br, "fe", ["fe", "be"])


def r_all(alphabet=("a", "b")):
    """The one-state returning machine that accepts every word, and so every picture."""
    return automaton(RETURNING, ["f"], [], alphabet, [("f", s, "f") for s in alphabet],
                     [("f", "f")], "f", ["f"])


def r_no_short_then_long():
    """Over {a}: rejects exactly the words whose first line has 1 cell and second at least 3.

    Read in `R:R0` it accepts every picture: a size (l, m, n) has a first
    line of n cells and a second of at most n + 1.  So it is equal to
    `r_all(("a",))` at every size, and differs from it on words no size reads.
    """
    rules = [("s0", "a", "s1"), ("s1", "a", "g"), ("g", "a", "g"), ("t0", "a", "t1"),
             ("t1", "a", "t2"), ("t2", "a", "x"), ("x", "a", "x")]
    borders = [("s1", "t0"), ("g", "g"), ("t1", "g"), ("t2", "g"), ("x", "x")]
    return automaton(RETURNING, ["s0", "s1", "g", "t0", "t1", "t2", "x"], [], ["a"], rules,
                     borders, "s0", ["g", "t0"])


def m_invalid():
    """Boustrophedon machine whose forward rule targets a backward state.

    Building it raises `InvalidAutomatonError`, so a test calls it where the
    refusal is expected.
    """
    return automaton(BOUSTROPHEDON, ["f"], ["b"], ("a", "b"),
                     [("f", "a", "b")], [("f", "b"), ("b", "f")], "f", ["f"])


def m_plus_named():
    """Returning machine with a `+` in a state name.

    Subsets {x,y} and {x+y} would share the name `{x+y}` if subsets were
    named by pasting member names with `+`.  It rejects the size-(1,1,1)
    picture `b`: `x+y` has no border rule.
    """
    return automaton(RETURNING, ["s", "x", "y", "x+y", "f"], [], ("a", "b"),
                     [("s", "a", "x"), ("s", "a", "y"), ("s", "b", "x+y")],
                     [("x", "f")], "s", ["f"])


def m_pipe_named():
    """Boustrophedon machine whose state names contain the separator `|`."""
    return automaton(BOUSTROPHEDON, ["s", "a", "a|b"], ["b|c", "c", "b"], ("0", "1"),
                     [("s", "0", "a"), ("a", "1", "a|b"), ("a|b", "0", "s"),
                      ("b|c", "1", "c"), ("c", "0", "b")],
                     [("a|b", "b|c"), ("s", "c"), ("b", "s"), ("c", "a")], "s", ["s", "b"])


def r_pipe_named():
    """Returning machine whose state names contain the separator `|`."""
    return automaton(RETURNING, ["a", "a|b", "b"], [], ("0", "1"),
                     [("a", "0", "a|b"), ("a|b", "1", "b"), ("b", "0", "a")],
                     [("b", "a"), ("a|b", "a")], "a", ["a"])


def random_ghbfa(rng: random.Random, max_per_partition=3, alphabet=("a", "b")):
    nf = rng.randint(1, max_per_partition)
    nb = rng.randint(1, max_per_partition)
    fwd = [f"f{i}" for i in range(nf)]
    bwd = [f"b{i}" for i in range(nb)]
    vr = set()
    for group in (fwd, bwd):
        for p in group:
            for sym in alphabet:
                for q in group:
                    if rng.random() < 0.45:
                        vr.add((p, sym, q))
    br = set()
    for p in fwd:
        for q in bwd:
            if rng.random() < 0.5:
                br.add((p, q))
    for p in bwd:
        for q in fwd:
            if rng.random() < 0.5:
                br.add((p, q))
    finals = [s for s in fwd + bwd if rng.random() < 0.4]
    return automaton(BOUSTROPHEDON, fwd, bwd, alphabet, vr, br, "f0", finals)


def random_ghrfa(rng: random.Random, max_states=3, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    vr = {(p, s, q) for p in states for s in alphabet for q in states
          if rng.random() < 0.45}
    br = {(p, q) for p in states for q in states if rng.random() < 0.5}
    finals = [s for s in states if rng.random() < 0.4]
    return automaton(RETURNING, states, [], alphabet, vr, br, "q0", finals)


def fooling_witness(k):
    """GHBFA with k forward and k backward states built for a fooling set.

    Border rules pair `fi` with `bi` both ways; every backward state is
    final.  Value rules: `e` loops on every state, `f0 --g.x--> x` for each
    forward x, `c --a.c.q--> q` and `p --v.p.c--> c` for all backward c, p, q,
    and `y --d.y--> y` for each forward y.
    """
    fwd = [f"f{i}" for i in range(k)]
    bwd = [f"b{i}" for i in range(k)]
    partner = {**dict(zip(fwd, bwd)), **dict(zip(bwd, fwd))}
    rules = {(s, "e", s) for s in fwd + bwd}
    rules |= {("f0", f"g.{x}", x) for x in fwd}
    rules |= {(c, f"a.{c}.{q}", q) for c in bwd for q in bwd}
    rules |= {(p, f"v.{p}.{c}", c) for p in bwd for c in bwd}
    rules |= {(y, f"d.{y}", y) for y in fwd}
    alphabet = {sym for _, sym, _ in rules}
    a = automaton(BOUSTROPHEDON, fwd, bwd, alphabet, rules, partner.items(),
                  "f0", bwd)
    return a, partner


def picture_of_linearization(plan, word):
    """The picture whose returning linearization under `plan` is `word`."""
    segments, line = [], []
    for sym in word:
        if sym == BORDER_SYMBOL:
            segments.append(line)
            line = []
        else:
            line.append(sym)
    assert not line and tuple(map(len, segments)) == tuple(map(len, plan.lines))
    return picture_from_cells(plan.size, {
        cell: sym
        for line_cells, syms in zip(plan.lines, segments)
        for cell, sym in zip(line_cells, syms)
    })


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
