"""Shared builders: reference machines, random automaton pools, oracles."""

from __future__ import annotations

import random

import pytest

from hexscan import BOUSTROPHEDON, RETURNING, HexSize, automaton
from hexscan.hexgrid import Cell, cells, picture_from_cells


def marker_picture(size: HexSize):
    """Picture with a distinct symbol in every cell (detects any relabeling)."""
    return picture_from_cells(size, {c: f"c{i}" for i, c in enumerate(cells(size))})


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


def m_plus_named():
    """Returning machine whose subsets {x,y} and {x+y} share the name `{x+y}`.

    It rejects the size-(1,1,1) picture `b`: `x+y` has no border rule.
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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
