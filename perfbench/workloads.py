"""The benchmark's three workloads.

Each workload builds, from a seed, a fixed list of operations.  An operation
is a timed call into `hexscan` plus an untimed check of its result against
the reference scanner (`reference.py`, which imports nothing from `hexscan`)
or against a property the construction must have.  A run repeats the whole
list, so every run attempts whole rounds of the same operations.

* gate-bounded: what a user does at the command line to confirm a
  construction; `hexscan.cli.main` is called in-process, once to build and
  once for `equiv --max-side 2`.
* gate-exact: the exact per-size oracle on pairs that enumeration cannot
  reach (sides 3 to 6), plus small cross pairs and known-unequal pairs.
* scan: `run` in all 12 modes of a machine's kind, for live machines, their
  construction outputs and the criterion-12 witness.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from typing import Callable, NamedTuple

import inputs
import reference as ref
from inputs import AB

FAMILY = ref.LINE_FAMILY_OPS


class CheckFailed(Exception):
    """The program contradicts a reference or a property before timing."""


class Op(NamedTuple):
    kind: str                      # label used in the make-up of the inputs
    call: Callable[[], object]     # the timed part
    check: Callable[[object], str | None]  # error message, or None when right
    deadline: float | None = None  # seconds after which the operation fails


def to_program(hx, m: ref.Machine):
    kind = hx.scan.BOUSTROPHEDON if m.kind == ref.BOUSTROPHEDON else hx.scan.RETURNING
    return hx.automata.automaton(kind, m.forward, m.backward, m.alphabet, m.rules,
                                 m.borders, m.start, m.finals)


def to_picture(hx, pic):
    (l, m, n), rows = pic
    return hx.hexgrid.HexPicture(hx.hexgrid.HexSize(l, m, n), rows)


def from_picture(p):
    return (p.size.l, p.size.m, p.size.n), p.rows


def expect_equal(result, want) -> str | None:
    return None if result == want else f"expected {want!r}, got {result!r}"


# --- gate-bounded -----------------------------------------------------------

# Construction, source kind, the equiv op its theorem names, and the modes.
CONSTRUCTIONS = {
    "determinize": (ref.BOUSTROPHEDON, "R0", "B:R0", "B:R0"),
    "to-rfa": (ref.BOUSTROPHEDON, "R0", "B:R0", "R:R0"),
    "mirror-r0": (ref.RETURNING, "r0", "R:R0", "R:R0"),
    "mirror-r3": (ref.RETURNING, "r3", "R:R0", "R:R0"),
    "mirror-R3": (ref.RETURNING, "R3", "R:R0", "R:R0"),
}
B_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
# Slot pattern of one group: construction, states (per partition for
# boustrophedon sources), and whether the question is a cross question.
GROUP = (
    ("determinize", None, False), ("to-rfa", None, False),
    ("mirror-r0", 2, False), ("mirror-r3", 3, False), ("mirror-R3", 1, False),
    ("determinize", None, True), ("to-rfa", None, False),
    ("mirror-r0", 3, False), ("mirror-r3", 2, True), ("mirror-R3", 2, False),
    ("determinize", None, False), ("to-rfa", None, True),
    ("mirror-r0", 1, True), ("mirror-r3", 1, False), ("mirror-R3", 2, True),
)
GATE_GROUPS = 28
# Once per round, the R3 mirror of a fixed 3-state machine ("the number of
# `a` is divisible by 3"): 22,737 states and ~9 MB of %HXA.  It is the same
# for every seed, so its second-long verdict adds no seed-to-seed spread.
HEAVY = ("mirror-R3", "mod-3", False)


def construction_command(name, src, out):
    if name == "determinize":
        return ["determinize", "--automaton", src, "-o", out]
    if name == "to-rfa":
        return ["to-rfa", "--automaton", src, "-o", out]
    return ["mirror", "--target", name.split("-")[1], "--automaton", src, "-o", out]


class GateBounded:
    """Build a construction with the CLI, then confirm it with `equiv`."""

    def __init__(self, hx, seed: int, workdir: str):
        self.hx = hx
        rng = random.Random(seed)
        self.out_path = os.path.join(workdir, "built.hxa")
        slots = [slot for _ in range(GATE_GROUPS) for slot in GROUP] + [HEAVY]
        self.sources: list[ref.Machine] = []
        self.questions = []  # (construction, built-from index, asked-against index)
        shape = 0
        for name, states, cross in slots:
            if CONSTRUCTIONS[name][0] == ref.BOUSTROPHEDON:
                m = inputs.random_ghbfa(rng, *B_SHAPES[shape % len(B_SHAPES)])
                shape += 1
            elif states == "mod-3":
                m = inputs.count_machine(ref.RETURNING, 3)
            else:
                m = inputs.random_ghrfa(rng, states)
            self.sources.append(m)
            i = len(self.sources) - 1
            # A cross question asks the previous source of the same kind.
            against = i
            if cross:
                against = max(j for j in range(i) if self.sources[j].kind == m.kind)
            self.questions.append((name, i, against))
        self.paths = []
        for i, m in enumerate(self.sources):
            path = os.path.join(workdir, f"source-{i}.hxa")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ref.hxa_text(m))
            self.paths.append(path)
        self.caches = hx.caches()
        self.ops = [self._op(*q) for q in self.questions]
        self.states_built = 0

    def cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.hx.cli.main(argv)
        return code, out.getvalue()

    def clear_caches(self) -> None:
        """Forget what an earlier command cached, as a fresh process would."""
        for cache in self.caches:
            cache.cache_clear()

    def _op(self, name, built, against):
        _, op, d1, d2 = CONSTRUCTIONS[name]
        src, other = self.paths[built], self.paths[against]
        argv = ["equiv", "--a1", other, "--d1", d1, "--a2", self.out_path, "--d2", d2,
                "--op", op, "--max-side", "2"]

        def call():
            build = self.cli(construction_command(name, src, self.out_path))
            self.clear_caches()
            return build, self.cli(argv)

        kind = f"{name} {'cross' if built != against else 'theorem'}"
        return Op(kind, call, lambda result: self._check(result, built, against))

    def prepare_checks(self) -> None:
        """Reference answers of every question, from the source machines.

        The constructions' theorems carry a source's language over to its
        construction, so a cross question's answer is the op-image of the
        symmetric difference of two source languages at max side 2.
        """
        sizes = ref.sizes_max_side(2)
        pictures = list(ref.all_pictures(AB, sizes))
        lin = {kind: [ref.linearization(p, kind) for p in pictures]
               for kind in (ref.BOUSTROPHEDON, ref.RETURNING)}
        languages = []
        for m in self.sources:
            scanner = ref.Scanner(m)
            languages.append(frozenset(
                p for p, words in zip(pictures, lin[m.kind])
                if scanner.final_frontier(words) & m.finals
            ))
        self.expected = {}
        for name, built, against in self.questions:
            diff = languages[built] ^ languages[against]
            op = CONSTRUCTIONS[name][1]
            if not diff:
                self.expected[built, against] = (0, "EQUAL\n")
            else:
                smallest = min((ref.image(op, p) for p in diff), key=ref.sort_key)
                self.expected[built, against] = (1, ref.serialize(smallest))

    def _check(self, result, built, against):
        (code, out), verdict = result
        if (code, out) != (0, ""):
            return f"construction exited {code} with output {out[:80]!r}"
        if built == against and verdict != (0, "EQUAL\n"):
            return f"construction question {built}: expected EQUAL, got {verdict!r}"
        return expect_equal(verdict, self.expected[built, against])

    def after_op(self, first_round: bool) -> None:
        self.clear_caches()
        if first_round:
            self.states_built += self._output_states()

    def _output_states(self) -> int:
        with open(self.out_path, encoding="utf-8") as fh:
            head = [next(fh) for _ in range(5)]
        return sum(len(line.split(":", 1)[1].split()) for line in head[3:5])


# --- gate-exact -------------------------------------------------------------

# Sizes out of enumeration's reach: sides 3 to 6, 19 to 37 cells, scan lines
# of at most 7 cells (so at most 2^7 words per line and frontier pair).
EXACT_SIZES = ((3, 3, 3), (6, 3, 3), (5, 4, 3), (4, 4, 4))
CROSS_SIZES = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))
CONVERSION_SHAPES = ((2, 1), (1, 2), (2, 2))
DETERMINIZE_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
CROSS_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2))
CONVERSION_PAIRS = 144    # per round, and half as many determinize pairs
EXACT_CROSS = 24
# Known-unequal pairs, the same for every seed: every picture but the all-`b`
# one is accepted by both sides, so the witness search after the pair search
# enumerates the whole size (2^37 pictures at (4,4,4)) and none finishes
# within the deadline today.
UNEQUAL_SIZES = ((4, 4, 4), (4, 5, 4), (5, 4, 4), (4, 4, 5))
DEADLINE_S = 0.1


class GateExact:
    """`exact_equivalent_for_size` on construction, cross and unequal pairs."""

    def __init__(self, hx, seed: int, workdir: str):
        self.hx = hx
        rng = random.Random(seed)
        lt, tr = hx.langtools, hx.transforms
        size = hx.hexgrid.HexSize
        mode = hx.scan.parse_direction
        b, r = mode("B:R0"), mode("R:R0")
        self.built = []
        self.ops = []
        sizes = [size(*s) for s in EXACT_SIZES]
        for i in range(CONVERSION_PAIRS + CONVERSION_PAIRS // 2):
            if i < CONVERSION_PAIRS:
                shape = CONVERSION_SHAPES[i % len(CONVERSION_SHAPES)]
                src = to_program(hx, inputs.live_ghbfa(rng, *shape))
                out, d2, kind = tr.hbfa_to_hrfa(src), r, "to-rfa pair"
            else:
                shape = DETERMINIZE_SHAPES[i % len(DETERMINIZE_SHAPES)]
                src = to_program(hx, inputs.live_ghbfa(rng, *shape))
                out, d2, kind = hx.automata.determinize(src), b, "determinize pair"
            self.built.append(out)
            self.ops.append(Op(kind, self._pair(lt, src, b, out, d2, sizes), self._check_equal))
        self.cross = []
        for i in range(EXACT_CROSS):
            shape = CROSS_SHAPES[i % len(CROSS_SHAPES)]
            m1, m2 = (inputs.random_ghbfa(rng, *shape) for _ in range(2))
            self.cross.append((m1, m2))
            call = self._pair(lt, to_program(hx, m1), b, to_program(hx, m2), b,
                              [size(*at) for at in CROSS_SIZES])
            self.ops.append(Op("cross pair", call,
                               lambda result, i=i: self._check_cross(result, i)))
        everything = to_program(hx, inputs.all_pictures_machine())
        some_a = to_program(hx, inputs.some_symbol_machine())
        for at in UNEQUAL_SIZES:
            call = self._pair(lt, everything, b, some_a, b, [size(*at)])
            self.ops.append(Op("unequal pair", call,
                               lambda result, at=at: self._check_unequal(result, at),
                               DEADLINE_S))
        self.states_built = sum(len(a.states) for a in self.built)

    @staticmethod
    def _pair(lt, a1, d1, a2, d2, sizes):
        def call():
            return [lt.exact_equivalent_for_size(a1, d1, a2, d2, s) for s in sizes]
        return call

    @staticmethod
    def _check_equal(result):
        bad = [w for w in result if w is not None]
        return f"construction pair reported a counterexample: {bad[0]}" if bad else None

    def prepare_checks(self) -> None:
        """Reference verdicts for the cross pairs, over every picture of each size."""
        words = {at: [ref.linearization(p, ref.BOUSTROPHEDON)
                      for p in ref.all_pictures(AB, [at])] for at in CROSS_SIZES}
        self.cross_equal = []
        for m1, m2 in self.cross:
            s1, s2 = ref.Scanner(m1), ref.Scanner(m2)
            self.cross_equal.append([
                all(bool(s1.final_frontier(w) & m1.finals) == bool(s2.final_frontier(w) & m2.finals)
                    for w in words[at])
                for at in CROSS_SIZES
            ])

    def _witness_error(self, m1, m2, at, witness):
        pic = from_picture(witness)
        if pic[0] != tuple(at):
            return f"witness of size {pic[0]} for a question at {at}"
        if ref.Scanner(m1).accepts(pic) == ref.Scanner(m2).accepts(pic):
            return f"witness accepted by both sides or by neither: {pic}"
        return None

    def _check_cross(self, result, i):
        m1, m2 = self.cross[i]
        for at, equal, witness in zip(CROSS_SIZES, self.cross_equal[i], result):
            if witness is None:
                error = None if equal else f"cross pair {i}: unequal at {at}, got equal"
            else:
                error = self._witness_error(m1, m2, at, witness)
            if error:
                return error
        return None

    def _check_unequal(self, result, at):
        (witness,) = result
        if witness is None:
            return f"unequal pair at {at} reported equal"
        return self._witness_error(inputs.all_pictures_machine(), inputs.some_symbol_machine(),
                                   at, witness)

    def after_op(self, first_round: bool) -> None:
        pass


# --- scan -------------------------------------------------------------------

# Picture sides: each side triple in some order the seed draws.  The cell
# count l*m + m*n + n*l - l - m - n + 1 does not depend on the order, so the
# work per picture is the same for every seed.
SIDES = tuple((s, s, s) for s in range(2, 16)) + tuple((s - 1, s, s + 1) for s in range(3, 17))
ALL_B_PICTURES = 8      # pictures with no `a`, so "some cell is a" rejects
# The 811-state mirrors read only pictures of at most this many cells, where
# per-call work (validation, rule tables) dominates a run; on larger pictures
# their guessing frontiers make the cost depend on the picture's contents.
LARGE_MACHINE_STATES, LARGE_MACHINE_CELLS = 800, 61
FOOLING_PICTURES = 48   # half of them diagonal


class Scan:
    """One machine on one picture in all 12 modes of its kind."""

    def __init__(self, hx, seed: int, workdir: str):
        self.hx = hx
        rng = random.Random(seed)
        tr = hx.transforms
        b_sources = [inputs.all_pictures_machine(ref.BOUSTROPHEDON),
                     inputs.parity_machine(ref.BOUSTROPHEDON),
                     inputs.some_symbol_machine(ref.BOUSTROPHEDON)]
        r_sources = [inputs.all_pictures_machine(ref.RETURNING),
                     inputs.parity_machine(ref.RETURNING),
                     inputs.some_symbol_machine(ref.RETURNING)]
        # (program machine, reference source, mirror op or None).  A mirror
        # by k in mode R:g accepts what its source accepts in R:k∘g; the
        # other constructions accept what their source accepts in mode g.
        self.machines = []
        built = []
        for m in b_sources:
            a = to_program(hx, m)
            built.append((tr.hbfa_to_hrfa(a), m, None))
            self.machines.append((a, m, None))
        parity = b_sources[1]
        built.append((hx.automata.determinize(to_program(hx, parity)), parity, None))
        for m in r_sources:
            a = to_program(hx, m)
            self.machines.append((a, m, None))
            # The R3 mirror of a 2-state machine has 811 states; of the
            # 1-state one, 13.  The r0 and r3 mirrors have 9 and 13.
            for k in ("R3",) if m is r_sources[0] else ("r0", "r3", "R3"):
                built.append((tr.family_normalizer(a, k), m, k))
        self.machines += built
        self.states_built = sum(len(a.states) for a, _, _ in built)
        self.pictures = []
        all_b = set(rng.sample(range(len(SIDES)), ALL_B_PICTURES))
        for i, sides in enumerate(SIDES):
            size = tuple(rng.sample(sides, 3))
            weights = (0, 1) if i in all_b else (1, 1)
            self.pictures.append(inputs.random_picture(rng, size, AB, weights))
        self.witness, partner = inputs.fooling_witness(9)
        fwd, bwd = self.witness.forward, self.witness.backward
        self.fooling = []
        for i in range(FOOLING_PICTURES):
            t = (rng.choice(fwd), rng.choice(bwd), rng.choice(bwd))
            s = t if i % 2 == 0 else (rng.choice(fwd), rng.choice(bwd), rng.choice(bwd))
            self.fooling.append((inputs.fooling_picture(partner, t, s), t == s))
        witness = to_program(hx, self.witness)
        self.modes = {kind: hx.scan.modes_for_kind(kind)
                      for kind in (hx.scan.BOUSTROPHEDON, hx.scan.RETURNING)}
        self.program_pictures = [to_picture(hx, p) for p in self.pictures]
        self.ops = []
        # (program machine, reference source, mirror op, program picture, picture)
        self.cases = []
        for a, src, k in self.machines:
            for p, pic in zip(self.program_pictures, self.pictures):
                if (len(a.states) <= LARGE_MACHINE_STATES
                        or ref.cell_count(pic[0]) <= LARGE_MACHINE_CELLS):
                    self.cases.append((a, src, k, p, pic))
        for pic, _ in self.fooling:
            self.cases.append((witness, self.witness, None, to_picture(hx, pic), pic))
        for n, (a, _, _, p, _) in enumerate(self.cases):
            kind = "witness" if a is witness else f"{len(a.states)}-state"
            self.ops.append(Op(kind, self._call(a, p),
                               lambda result, n=n: expect_equal(result, self.expected[n])))
        self._plans()

    def _call(self, a, p):
        automata, modes = self.hx.automata, self.modes[a.kind]

        def call():
            return tuple(automata.run(a, p, mode) for mode in modes)
        return call

    def _plans(self) -> None:
        """Scan plans of every picture size in every mode of both kinds."""
        for p in self.program_pictures:
            for modes in self.modes.values():
                for mode in modes:
                    self.hx.scan.scan_lines(p.size, mode)

    def prepare_checks(self) -> None:
        """Expected 12-mode verdicts of every case.

        Line-family modes come from the reference scanner run on the source
        machine, in the mode the construction's theorem names.  Other modes
        come from mode coherence, run(a, p, g) == run(a, apply_op(g, p), R0),
        and a conversion or determinization must agree with its source there.
        """
        hx = self.hx
        images = {}
        scanners = {}
        self.expected = []
        for n, (a, src, k, p, pic) in enumerate(self.cases):
            scanner = scanners.setdefault(id(src), ref.Scanner(src))
            canonical = hx.scan.canonical_mode(a.kind)
            source = to_program(hx, src)
            verdicts = []
            for mode in self.modes[a.kind]:
                g = mode.element
                if g in FAMILY:
                    verdicts.append(scanner.accepts(pic, ref.compose_family(k or "R0", g)))
                    continue
                if (g, id(p)) not in images:
                    images[g, id(p)] = hx.symmetry.apply_op(g, p)
                verdict = hx.automata.run(a, images[g, id(p)], canonical)
                if k is None and a != source:
                    mode_src = hx.scan.DirectionMode(source.kind, g)
                    if hx.automata.run(source, p, mode_src) != verdict:
                        raise CheckFailed(f"case {n}: construction and source disagree in {g}")
                verdicts.append(verdict)
            self.expected.append(tuple(verdicts))
        first_fooling = len(self.cases) - len(self.fooling)
        for n, (_, diagonal) in enumerate(self.fooling):
            if self.expected[first_fooling + n][0] != diagonal:
                raise CheckFailed(f"witness case {n}: B:R0 verdict is not 'diagonal'")

    def after_op(self, first_round: bool) -> None:
        pass


WORKLOADS = {"gate-bounded": GateBounded, "gate-exact": GateExact, "scan": Scan}
