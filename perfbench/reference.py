"""Reference scanner: hexagonal pictures and scanning automata from the model.

Everything here is derived from the model's definitions and shares no code
with `hexscan`, so the benchmark can check the program's verdicts against it:

  * the cells of size (l, m, n) are the lattice points (r, q) with
    0 <= r <= l+n-2, -(l-1) <= q <= m-1 and 0 <= q+r <= m+n-2;
  * rows are {r const}, left to right; scan lines are {q const}, taken
    left to right, each read top to bottom;
  * a run reads every scan line followed by one `#`; a boustrophedon
    machine reads the odd-numbered lines (0-based) reversed;
  * running in mode `g` is running canonically on the g-image of the
    picture; for the four ops that fix the line family, r0 reverses each
    line, r3 reverses the line order and R3 does both.  Both reflections
    swap the upper-left and top sides, R3 keeps the size;
  * `%HXP 1` text is the header, `size: l m n` and one `row:` line per row.

A picture is a pair (size, rows) of plain tuples.  A machine is a `Machine`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

BOUSTROPHEDON = "B"
RETURNING = "R"
LINE_FAMILY_OPS = ("R0", "r0", "r3", "R3")


class Machine(NamedTuple):
    """A scanning automaton as plain data; kind is "B" or "R"."""

    kind: str
    forward: tuple[str, ...]
    backward: tuple[str, ...]
    alphabet: tuple[str, ...]
    rules: frozenset[tuple[str, str, str]]
    borders: frozenset[tuple[str, str]]
    start: str
    finals: frozenset[str]


def cells(size):
    """Cells of a size in row-major order, filtered from the bounding box."""
    l, m, n = size
    return [
        (r, q)
        for r in range(l + n - 1)
        for q in range(-(l - 1), m)
        if 0 <= q + r <= m + n - 2
    ]


def lines(size):
    """Scan lines of the canonical plan: {q const}, left to right, top to bottom."""
    by_q: dict[int, list] = {}
    for r, q in sorted(cells(size), key=lambda c: (c[1], c[0])):
        by_q.setdefault(q, []).append((r, q))
    return [by_q[q] for q in sorted(by_q)]


def row_cells(size):
    by_r: dict[int, list] = {}
    for r, q in cells(size):
        by_r.setdefault(r, []).append((r, q))
    return [by_r[r] for r in sorted(by_r)]


def picture(size, assignment):
    """Picture from a {cell: symbol} mapping covering every cell."""
    return (tuple(size), tuple(tuple(assignment[c] for c in row) for row in row_cells(size)))


def symbols_by_cell(pic):
    size, rows = pic
    return {c: sym for row, syms in zip(row_cells(size), rows) for c, sym in zip(row, syms)}


def line_words(pic):
    """The picture's symbols along the canonical scan lines."""
    at = symbols_by_cell(pic)
    return [[at[c] for c in line] for line in lines(pic[0])]


def from_line_words(size, words):
    """The picture of `size` whose canonical scan lines read `words`."""
    plan = lines(size)
    if [len(w) for w in words] != [len(line) for line in plan]:
        raise ValueError(f"line words do not fit size {size}")
    return picture(size, {c: s for line, w in zip(plan, words) for c, s in zip(line, w)})


def image_size(op, size):
    l, m, n = size
    if op == "R0" or op == "R3":
        return (l, m, n)
    if op == "r0" or op == "r3":
        return (m, l, n)
    raise ValueError(f"op {op!r} does not fix the scan-line family")


def image(op, pic):
    """The op-image of a picture, for the four ops fixing the line family."""
    words = line_words(pic)
    if op in ("r0", "R3"):
        words = [w[::-1] for w in words]
    if op in ("r3", "R3"):
        words = words[::-1]
    return from_line_words(image_size(op, pic[0]), words)


def linearization(pic, kind, op="R0"):
    """The symbol lines a machine of `kind` consumes in mode `kind:op`."""
    words = line_words(image(op, pic))
    if kind == BOUSTROPHEDON:
        words = [w[::-1] if i % 2 else w for i, w in enumerate(words)]
    return words


class Scanner:
    """Frontier-set runs of one machine; rule tables are built once."""

    def __init__(self, machine: Machine):
        self.machine = machine
        table: dict[tuple[str, str], set] = {}
        for p, sym, q in machine.rules:
            table.setdefault((p, sym), set()).add(q)
        for p, q in machine.borders:
            table.setdefault((p, "#"), set()).add(q)
        self.step = {key: frozenset(v) for key, v in table.items()}

    def final_frontier(self, words) -> set:
        """States reachable after reading each line word and its `#`."""
        step = self.step
        frontier = {self.machine.start}
        for word in words:
            for sym in list(word) + ["#"]:
                frontier = {q for p in frontier for q in step.get((p, sym), ())}
        return frontier

    def accepts(self, pic, op="R0") -> bool:
        words = linearization(pic, self.machine.kind, op)
        return bool(self.final_frontier(words) & self.machine.finals)


def compose_family(g, h):
    """The line-family op equal to applying h, then g: the flags XOR."""
    flags = {"R0": (0, 0), "r0": (1, 0), "r3": (0, 1), "R3": (1, 1)}
    x = tuple(a ^ b for a, b in zip(flags[g], flags[h]))
    return next(op for op, f in flags.items() if f == x)


def cell_count(size):
    return len(cells(size))


def serialize(pic) -> str:
    (l, m, n), rows = pic
    return "".join(
        [f"%HXP 1\nsize: {l} {m} {n}\n"] + ["row: " + " ".join(row) + "\n" for row in rows]
    )


def sort_key(pic):
    """Reporting order of counterexamples: cell count, then `%HXP` text."""
    return cell_count(pic[0]), serialize(pic)


def sizes_max_side(k):
    return [(l, m, n) for l in range(1, k + 1) for m in range(1, k + 1) for n in range(1, k + 1)]


def all_pictures(alphabet, sizes):
    for size in sizes:
        cs = cells(size)
        for syms in itertools.product(sorted(alphabet), repeat=len(cs)):
            yield picture(size, dict(zip(cs, syms)))


def language(machine: Machine, alphabet, sizes, op="R0") -> frozenset:
    """Every picture over `alphabet` with size in `sizes` the machine accepts."""
    scanner = Scanner(machine)
    return frozenset(p for p in all_pictures(alphabet, sizes) if scanner.accepts(p, op))


def hxa_text(machine: Machine) -> str:
    """`%HXA 1` text of a machine, as the format section of the README gives it."""
    kind = "GHBFA" if machine.kind == BOUSTROPHEDON else "GHRFA"
    out = [
        "%HXA 1",
        f"kind: {kind}",
        "alphabet: " + " ".join(sorted(machine.alphabet)),
        "forward-states: " + " ".join(sorted(machine.forward)),
        ("backward-states: " + " ".join(sorted(machine.backward))).rstrip(),
        f"start: {machine.start}",
        ("final: " + " ".join(sorted(machine.finals))).rstrip(),
    ]
    out += [f"rule: {p} {s} -> {q}" for p, s, q in sorted(machine.rules)]
    out += [f"border: {p} -> {q}" for p, q in sorted(machine.borders)]
    return "\n".join(out) + "\n"
