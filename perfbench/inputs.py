"""Seeded source machines and pictures for the benchmark's workloads.

Everything is plain data (`reference.Machine`, reference pictures); the
workloads turn it into `hexscan` objects or `%HXA` files.  Machine shapes
(kind and states per partition) are fixed by slot, so the constructions'
documented state counts repeat for every seed; the seed draws the rules,
the final states and the picture contents.
"""

from __future__ import annotations

import random

from reference import BOUSTROPHEDON, RETURNING, Machine, cells, lines, picture

AB = ("a", "b")


def _sample(rng: random.Random, pool: list, share: float) -> frozenset:
    """Exactly round(share * len(pool)) members of pool, at least one."""
    return frozenset(rng.sample(pool, max(1, round(share * len(pool)))))


def random_ghbfa(rng: random.Random, nf: int, nb: int, alphabet=AB) -> Machine:
    """Boustrophedon machine: value rules inside a partition, borders across.

    45% of the possible value rules, half of the possible border rules and
    40% of the states as finals, drawn without replacement.
    """
    fwd = tuple(f"f{i}" for i in range(nf))
    bwd = tuple(f"b{i}" for i in range(nb))
    rules = [(p, s, q) for group in (fwd, bwd) for p in group for s in alphabet for q in group]
    borders = [(p, q) for src, dst in ((fwd, bwd), (bwd, fwd)) for p in src for q in dst]
    return Machine(BOUSTROPHEDON, fwd, bwd, tuple(alphabet), _sample(rng, rules, 0.45),
                   _sample(rng, borders, 0.5), "f0", _sample(rng, list(fwd + bwd), 0.4))


def random_ghrfa(rng: random.Random, n: int, alphabet=AB) -> Machine:
    """Returning machine over n untyped states, drawn as `random_ghbfa` draws."""
    states = tuple(f"q{i}" for i in range(n))
    rules = [(p, s, q) for p in states for s in alphabet for q in states]
    borders = [(p, q) for p in states for q in states]
    return Machine(RETURNING, states, (), tuple(alphabet), _sample(rng, rules, 0.45),
                   _sample(rng, borders, 0.5), "q0", _sample(rng, list(states), 0.4))


def live_ghbfa(rng: random.Random, nf: int, nb: int, alphabet=AB) -> Machine:
    """Boustrophedon machine whose frontier never empties.

    Every state has one or two successors on each symbol (half of the
    (state, symbol) pairs get two) and one border successor, so each
    verdict depends on the whole picture.
    """
    fwd = tuple(f"f{i}" for i in range(nf))
    bwd = tuple(f"b{i}" for i in range(nb))
    rules = set()
    for group in (fwd, bwd):
        keys = [(p, s) for p in group for s in alphabet]
        doubled = set(rng.sample(keys, len(keys) // 2))
        for p, s in keys:
            for q in rng.sample(group, min(len(group), 1 + ((p, s) in doubled))):
                rules.add((p, s, q))
    borders = frozenset(
        (p, rng.choice(dst)) for src, dst in ((fwd, bwd), (bwd, fwd)) for p in src
    )
    finals = frozenset(rng.sample(fwd + bwd, max(1, round(0.4 * (nf + nb)))))
    return Machine(BOUSTROPHEDON, fwd, bwd, tuple(alphabet), frozenset(rules), borders,
                   "f0", finals)


def _loop_machine(kind, counters, alphabet, step, finals):
    """Machine tracking one counter value over the cells it reads.

    A boustrophedon machine keeps a forward and a backward copy of every
    counter value and crosses between them on `#`; a returning machine
    keeps one copy and loops on `#`.
    """
    sides = "fb" if kind == BOUSTROPHEDON else "f"
    rules = frozenset(
        (f"{side}{c}", s, f"{side}{step(c, s)}")
        for side in sides for c in counters for s in alphabet
    )
    borders = frozenset(
        (f"{side}{c}", f"{sides[(i + 1) % len(sides)]}{c}")
        for i, side in enumerate(sides) for c in counters
    )
    states = {side: tuple(f"{side}{c}" for c in counters) for side in sides}
    return Machine(kind, states["f"], states.get("b", ()), tuple(alphabet), rules, borders,
                   f"f{counters[0]}", frozenset(f"{side}{c}" for side in sides for c in finals))


def all_pictures_machine(kind=BOUSTROPHEDON, alphabet=AB) -> Machine:
    """Accepts every picture; its frontier never empties."""
    return _loop_machine(kind, (0,), alphabet, lambda c, s: c, (0,))


def count_machine(kind=BOUSTROPHEDON, modulus=2, symbol="a", alphabet=AB) -> Machine:
    """Accepts iff the number of cells holding `symbol` is divisible by `modulus`."""
    return _loop_machine(kind, tuple(range(modulus)), alphabet,
                         lambda c, s: (c + (s == symbol)) % modulus, (0,))


def parity_machine(kind=BOUSTROPHEDON, symbol="a", alphabet=AB) -> Machine:
    """Accepts iff the number of cells holding `symbol` is even."""
    return count_machine(kind, 2, symbol, alphabet)


def some_symbol_machine(kind=BOUSTROPHEDON, symbol="a", alphabet=AB) -> Machine:
    """Accepts iff some cell holds `symbol`."""
    return _loop_machine(kind, (0, 1), alphabet, lambda c, s: c | (s == symbol), (1,))


def random_picture(rng: random.Random, size, alphabet=AB, weights=None):
    return picture(size, {c: rng.choices(alphabet, weights)[0] for c in cells(size)})


def fooling_witness(k: int) -> tuple[Machine, dict[str, str]]:
    """The 18-state (k = 9) boustrophedon machine of acceptance criterion 12.

    Border rules pair `fi` with `bi` both ways and every backward state is
    final.  Value rules: `e` loops on every state, `f0 --g.x--> x` for each
    forward x, `c --a.c.q--> q` and `p --v.p.c--> c` for backward c, p, q,
    and `y --d.y--> y` for each forward y.
    """
    fwd = tuple(f"f{i}" for i in range(k))
    bwd = tuple(f"b{i}" for i in range(k))
    partner = {**dict(zip(fwd, bwd)), **dict(zip(bwd, fwd))}
    rules = {(s, "e", s) for s in fwd + bwd}
    rules |= {("f0", f"g.{x}", x) for x in fwd}
    rules |= {(c, f"a.{c}.{q}", q) for c in bwd for q in bwd}
    rules |= {(p, f"v.{p}.{c}", c) for p in bwd for c in bwd}
    rules |= {(y, f"d.{y}", y) for y in fwd}
    alphabet = tuple(sorted({s for _, s, _ in rules}))
    machine = Machine(BOUSTROPHEDON, fwd, bwd, alphabet, frozenset(rules),
                      frozenset(partner.items()), "f0", frozenset(bwd))
    return machine, partner


def fooling_picture(partner, prefix_t, suffix_t):
    """Size-(2,2,2) picture whose canonical returning read is x_t y_s.

    t = (x, c, q) with x forward and c, q backward; x_t = `g.x e # a.c.q` and
    y_s = `e v.b(x).c # d.f(q) e #`.  The witness accepts it iff t == s.
    """
    x, c, _ = prefix_t
    x2, c2, q2 = suffix_t
    words = [
        [f"g.{x}", "e"],
        [f"a.{c}.{prefix_t[2]}", "e", f"v.{partner[x2]}.{c2}"],
        [f"d.{partner[q2]}", "e"],
    ]
    size = (2, 2, 2)
    return picture(size, {cell: s for line, w in zip(lines(size), words)
                          for cell, s in zip(line, w)})
