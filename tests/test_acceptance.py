"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are discrete equalities (tolerance zero).  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time
from dataclasses import replace

import pytest

from hexscan import (
    BORDER_SYMBOL,
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    RETURNING,
    apply_op,
    automaton,
    canonical_mode,
    cell_count,
    compose,
    invert,
    make_uniform,
    modes_for_kind,
    normal_form,
    render_ascii,
    row_widths,
    run,
    scan_lines,
    serialize_picture,
    validate,
)
from hexscan.cli import main as cli_main
from hexscan.hexgrid import cells, picture_from_cells
from hexscan.langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    enumerate_pictures,
    equal_at_every_size,
    equivalent,
    exact_equivalent_for_size,
    image_set,
)
from hexscan.symmetry import OP_NAMES
from hexscan.transforms import (
    family_normalizer,
    hbfa_to_hrfa,
    mirror_line_order,
    mirror_within_lines,
)
from hexscan.automata import determinize, serialize_automaton

from conftest import (ALL_MODES, evaluate_word, expected_output_states, fooling_witness,
                      is_deterministic, is_rotation, m_all, m_none, marker_picture,
                      picture_of_linearization, random_ghbfa, random_ghrfa)

AB = ("a", "b")
BOUND2 = SizeBound.max_side(2)
BOUND6 = SizeBound.max_side(6)
CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)


def _report(number: int, elapsed: float, limit: float, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d}: PASS in {elapsed:.2f}s / limit {limit:.0f}s{extra}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime limit"


def _sizes_with_max_side(k):
    r = range(1, k + 1)
    return [HexSize(l, m, n) for l in r for m in r for n in r]


def _sample_pictures(size, count, seed):
    rng = random.Random(seed)
    out = [marker_picture(size)]
    while len(out) < count:
        out.append(
            picture_from_cells(size, {c: rng.choice(AB) for c in cells(size)})
        )
    return out


def test_criterion_01_group_table():
    start = time.time()
    from test_symmetry import TABLE

    sizes = [HexSize(2, 2, 2), HexSize(3, 3, 3), HexSize(2, 3, 4)]
    pics = {s: _sample_pictures(s, 3, seed=101) for s in sizes}
    pairs = 0
    for g, h in itertools.product(OP_NAMES, repeat=2):
        composed = compose(g, h)
        assert composed == TABLE[g][h], "symbolic table entry"
        for s in sizes:
            for p in pics[s]:
                assert apply_op(composed, p) == apply_op(g, apply_op(h, p))
        pairs += 1
    assert pairs == 144
    _report(1, time.time() - start, 5, "144 pairs, symbolic + 9 pictures")


def test_criterion_02_normal_forms():
    start = time.time()
    pic = marker_picture(HexSize(3, 3, 3))
    checked = 0
    for op in OP_NAMES:
        if op in ("R1", "r1"):
            continue
        assert evaluate_word(normal_form(op), pic) == apply_op(op, pic)
        checked += 1
    assert checked == 10
    _report(2, time.time() - start, 1, "10 identities")


def test_criterion_03_geometry():
    start = time.time()
    for size in _sizes_with_max_side(4):
        widths = row_widths(size)
        assert sum(widths) == cell_count(size)
        assert widths == widths[::-1]
        # the `#` ring grows every side by one
        rows = render_ascii(make_uniform(size, "a"), with_border=True).splitlines()
        grown = HexSize(size.l + 1, size.m + 1, size.n + 1)
        assert [len(row.split()) for row in rows] == row_widths(grown)
        assert sum(row.count("#") for row in rows) == cell_count(grown) - cell_count(size)
    assert cell_count(HexSize(3, 3, 3)) == 19
    _report(3, time.time() - start, 1, "64 sizes")


def test_criterion_04_scan_coverage():
    start = time.time()
    for size in _sizes_with_max_side(3):
        expect = set(cells(size))
        for mode in ALL_MODES:
            plan = scan_lines(size, mode)
            visited = [c for line in plan.lines for c in line]
            assert len(visited) == len(expect)
            assert set(visited) == expect
            lengths = tuple(map(len, plan.lines))
            assert lengths == lengths[::-1]
    _report(4, time.time() - start, 5, "27 sizes x 24 modes")


def test_criterion_05_direction_coherence():
    start = time.time()
    rng = random.Random(505)
    transformed = {}

    def check_pool(kind, make, count):
        modes = modes_for_kind(kind)
        canonical = canonical_mode(kind)
        for i in range(count):
            a = make(rng)
            base = accepted_set(a, canonical, AB, BOUND2)
            for mode in modes:
                native = accepted_set(a, mode, AB, BOUND2)
                pulled = image_set(base, invert(mode.element))
                assert native.members == pulled.members, (kind, i, mode.code)

    check_pool(BOUSTROPHEDON, lambda r: random_ghbfa(r, 3), 30)
    check_pool(RETURNING, lambda r: random_ghrfa(r, 3), 30)
    # spot-check the run-level statement literally on a subsample
    pics = list(enumerate_pictures(AB, BOUND2))
    for kind, make in ((BOUSTROPHEDON, random_ghbfa), (RETURNING, random_ghrfa)):
        a = make(rng, 3)
        for mode in modes_for_kind(kind):
            key = mode.element
            for p in pics:
                if (key, p) not in transformed:
                    transformed[(key, p)] = apply_op(key, p)
                assert run(a, p, mode) == run(a, transformed[(key, p)])
    _report(5, time.time() - start, 120, "30+30 automata, 12 modes, 190 pictures")


def test_criterion_06_determinization():
    start = time.time()
    rng = random.Random(606)
    for i in range(50):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)
        assert is_deterministic(d), i
        assert bounded_equivalent(a, CB, d, CB, AB, BOUND2) is None, i
    _report(6, time.time() - start, 120, "50 automata")


def test_criterion_07_boustrophedon_to_returning():
    start = time.time()
    rng = random.Random(707)
    for i in range(30):
        a = random_ghbfa(rng, max_per_partition=3)
        conv = hbfa_to_hrfa(a)
        assert bounded_equivalent(a, CB, conv, CR, AB, BOUND2) is None, i
        n = len(a.states)
        assert len(conv.states) == expected_output_states("hbfa-to-hrfa", a), (
            f"automaton {i}: conversion built {len(conv.states)} states for n={n}, "
            "not expected_output_states('hbfa-to-hrfa', a); a 2n^2+1 target is "
            "refuted by test_criterion_12_conversion_lower_bound_certificate"
        )
    _report(7, time.time() - start, 120, "30 automata")


def test_criterion_08_mirrors():
    start = time.time()
    rng = random.Random(808)
    for i in range(30):
        a = random_ghrfa(rng, max_states=3)
        assert bounded_equivalent(a, CR, mirror_within_lines(a), CR, AB, BOUND2,
                                  op="r0") is None, i
        assert bounded_equivalent(a, CR, mirror_line_order(a), CR, AB, BOUND2,
                                  op="r3") is None, i
        composed = mirror_line_order(mirror_within_lines(a))
        assert bounded_equivalent(a, CR, composed, CR, AB, BOUND2, op="R3") is None, i
    _report(8, time.time() - start, 180, "30 automata x {r0, r3, R3}")


def test_criterion_09_closure_pipeline():
    start = time.time()
    rng = random.Random(909)
    pool = [random_ghrfa(rng, max_states=3) for _ in range(6)]
    pool += [random_ghbfa(rng, max_per_partition=1) for _ in range(4)]
    for i, a in enumerate(pool):
        if a.kind == BOUSTROPHEDON:
            base, d_in = hbfa_to_hrfa(a), CB
        else:
            base, d_in = a, CR
        built = {k: family_normalizer(base, k) for k in ("r0", "r3")}
        for g in OP_NAMES:
            k = "r0" if is_rotation(g) else "r3"
            e = compose(k, invert(g))
            w = bounded_equivalent(a, d_in, built[k], DirectionMode(RETURNING, e),
                                   AB, BOUND2, op=g)
            assert w is None, (i, g)
    _report(9, time.time() - start, 300, "10 automata x 12 elements")


def test_criterion_10_oracle_agreement():
    start = time.time()
    rng = random.Random(1010)
    size = HexSize(2, 2, 2)
    single = SizeBound(frozenset({size}))
    for i in range(20):
        a1 = random_ghbfa(rng)
        a2 = random_ghbfa(rng)
        exact = exact_equivalent_for_size(a1, CB, a2, CB, size)
        brute = bounded_equivalent(a1, CB, a2, CB, AB, single)
        assert (exact is None) == (brute is None), i
    _report(10, time.time() - start, 60, "20 pairs at (2,2,2)")


def test_criterion_11_cli_contract(tmp_path, capsys):
    start = time.time()
    all_path = tmp_path / "all.hxa"
    all_path.write_text(serialize_automaton(m_all()))
    none_path = tmp_path / "none.hxa"
    none_path.write_text(serialize_automaton(m_none()))
    pic_path = tmp_path / "p.hxp"
    pic_path.write_text(serialize_picture(make_uniform(HexSize(2, 2, 2), "a")))

    code = cli_main(["group", "--compose", "R1", "R1"])
    out = capsys.readouterr().out
    assert (code, out) == (0, "R2\n")

    code = cli_main(["run", "--automaton", str(all_path), "--direction", "B:R0",
                     str(pic_path)])
    out = capsys.readouterr().out
    assert (code, out) == (0, "ACCEPT\n")

    code = cli_main(["equiv", "--a1", str(all_path), "--d1", "B:R0",
                     "--a2", str(none_path), "--d2", "B:R0",
                     "--op", "R0", "--max-side", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "%HXP 1\nsize: 1 1 1\nrow: a\n"
    _report(11, time.time() - start, 60, "3 byte-exact invocations")


def test_criterion_12_conversion_lower_bound_certificate():
    """No canonical-mode conversion meets 2|Q|^2+1 states on every input.

    A returning automaton run in R:R0 reads a size-(2,2,2) picture as the
    word `line1 # line2 # line3 #` (line lengths 2, 3, 2) and is an NFA on
    those words.  Take pairs (x_t, y_t) with x_t y_t accepted and, for each
    t != s, x_t y_s or x_s y_t rejected.  If accepting runs of x_t y_t and
    x_s y_s shared a state at the cut, both cross words would be accepted,
    so every R:R0 returning automaton with the witness's language has at
    least as many states as there are pairs (Birget, IPL 1992).

    For t = (x, c, q), x forward and c, q backward, the cut falls after the
    first cell of line 2: x_t = `g.x e # a.c.q` and y_t =
    `e v.b(x).c # d.f(q) e #`, where b(x) and f(q) are border partners.  The
    boustrophedon machine reads line 2 reversed, so it must verify v, then
    a, against the states the prefix and suffix pin down.  With k = 9 states
    per partition there are 729 pairs for 18 states, above 2*18^2+1 = 649;
    k = 9 is the least k with k^3 > 2(2k)^2 + 1.
    """
    start = time.time()
    k = 9
    witness, partner = fooling_witness(k)
    assert validate(witness) == []
    n = len(witness.states)
    assert n == 18
    plan = scan_lines(HexSize(2, 2, 2), CR)
    assert tuple(map(len, plan.lines)) == (2, 3, 2)
    fwd = sorted(witness.forward_states)
    bwd = sorted(witness.backward_states)
    pairs = [
        ((f"g.{x}", "e", BORDER_SYMBOL, f"a.{c}.{q}"),
         ("e", f"v.{partner[x]}.{c}", BORDER_SYMBOL, f"d.{partner[q]}", "e",
          BORDER_SYMBOL))
        for x, c, q in itertools.product(fwd, bwd, bwd)
    ]
    assert len(pairs) == k**3 == 729
    assert len(pairs) > 2 * n**2 + 1

    def accepts(prefix, suffix):
        return run(witness, picture_of_linearization(plan, prefix + suffix), CB)

    for prefix, suffix in pairs:
        assert accepts(prefix, suffix), prefix
    for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2):
        assert not accepts(x1, y2) or not accepts(x2, y1), (x1, x2)
    _report(12, time.time() - start, 120,
            f"{len(pairs)} fooling pairs > 2*{n}^2+1 = {2 * n**2 + 1}")


def test_conversion_of_criterion_12_witness_is_near_its_bound():
    """The conversion builds 1 + k + k^3 states, within k + 1 of the bound."""
    k = 9
    witness, _ = fooling_witness(k)
    conv = hbfa_to_hrfa(witness)
    assert len(conv.states) == expected_output_states("hbfa-to-hrfa", witness) == 1 + k + k**3
    for size in (HexSize(1, 1, 1), HexSize(1, 1, 2), HexSize(2, 2, 2)):
        assert exact_equivalent_for_size(witness, CB, conv, CR, size) is None, size


def test_criterion_13_exact_gate_to_side_6():
    """Criteria 6 and 7's constructions, confirmed at every size.

    The same seeded pools as criteria 6 and 7.  `equal_at_every_size`
    certifies each pair at every size.  The per-size oracle confirms it at
    every size with max side at most 6 (216 sizes, up to 91 cells), where
    enumeration cannot reach: `exact_equivalent_for_size` answers a
    certified question without a walk, so `equivalent` walks every size too.
    """
    start = time.time()
    sizes = _sizes_with_max_side(6)
    assert len(sizes) == 216
    rng = random.Random(606)
    for i in range(50):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)
        assert equal_at_every_size(a, CB, d, CB) is True, i
        assert equivalent(a, CB, d, CB, AB, BOUND6) is None, i
        for size in sizes:
            assert exact_equivalent_for_size(a, CB, d, CB, size) is None, (i, size)
    rng = random.Random(707)
    for i in range(30):
        a = random_ghbfa(rng, max_per_partition=3)
        conv = hbfa_to_hrfa(a)
        assert equal_at_every_size(a, CB, conv, CR) is True, i
        assert equivalent(a, CB, conv, CR, AB, BOUND6) is None, i
        for size in sizes:
            assert exact_equivalent_for_size(a, CB, conv, CR, size) is None, (i, size)
    _report(13, time.time() - start, 60,
            "50 determinizations + 30 conversions, at every size and x 216 sizes")


def test_criterion_13_pools_tell_mutants_apart():
    """Kill rates of criterion 13's pools, by the exact oracle at max side 6.

    A mutant is caught on a machine when some size of the 216 tells it from
    the machine.  The counts measured when this test was written are the
    floors; max side 6 catches exactly what max side 4 does.  No machine
    catches every single finality flip of its determinization, and side 6
    tells the unreversed reading apart on no more machines than side 2 does.
    """
    start = time.time()
    sizes = _sizes_with_max_side(6)

    def caught(a, da, mutant, dm):
        return any(exact_equivalent_for_size(a, da, mutant, dm, s) is not None for s in sizes)

    rng = random.Random(707)
    conversion = {"unreversed": 0, "1[": 0, "3[": 0}
    for _ in range(30):
        a = random_ghbfa(rng, max_per_partition=3)
        conversion["unreversed"] += caught(a, CB, replace(a, kind=RETURNING), CR)
        conv = hbfa_to_hrfa(a)
        for prefix in ("1[", "3["):
            kept = frozenset(f for f in conv.finals if not f.startswith(prefix))
            conversion[prefix] += caught(a, CB, replace(conv, finals=kept), CR)
    assert conversion["unreversed"] >= 2, conversion
    assert conversion["1["] >= 11 and conversion["3["] >= 11, conversion

    rng = random.Random(606)
    flips = {"some subset": 0, "start": 0}
    for _ in range(50):
        a = random_ghbfa(rng, max_per_partition=4)
        d = determinize(a)
        flips["some subset"] += any(
            caught(a, CB, replace(d, finals=d.finals ^ {s}), CB) for s in sorted(d.states))
        flips["start"] += caught(a, CB, replace(d, finals=d.finals ^ {d.start}), CB)
    assert flips["some subset"] >= 37 and flips["start"] >= 9, flips
    _report(13, time.time() - start, 60, f"kill counts {conversion} {flips}")


def test_criterion_14_within_line_mirror_exact_to_side_6():
    """Criteria 8 and 9's questions, at every size and by the exact oracle at max side 6.

    The same seeded pools: criterion 8's r0, r3 and composed-R3 clauses,
    and criterion 9's question for each of the 12 elements g.  Each
    question is certified at every size by `equal_at_every_size`, walked at
    every size with max side at most 6 by `equivalent`, and asked at one of
    those sizes after another of `exact_equivalent_for_size`.  Modes g and
    r0 after g read the same lines in opposite orientations; g and r3 or R3
    after g read them in reverse order, which the exact oracle answers by
    reading one side as its reversal.
    """
    start = time.time()
    sizes = _sizes_with_max_side(6)
    r0, r3, R3 = (DirectionMode(RETURNING, e) for e in ("r0", "r3", "R3"))
    rng = random.Random(808)
    for i in range(30):
        a = random_ghrfa(rng, max_states=3)
        mirrored = mirror_within_lines(a)
        for d1, built in ((r0, mirrored), (r3, mirror_line_order(a)),
                          (R3, mirror_line_order(mirrored))):
            assert equal_at_every_size(a, d1, built, CR) is True, (i, d1.code)
            assert equivalent(a, d1, built, CR, AB, BOUND6) is None, (i, d1.code)
            for size in sizes:
                assert exact_equivalent_for_size(a, d1, built, CR, size) is None, (
                    i, d1.code, size)
    # boustrophedon sources, read in B:r3 and B:R3: the lines their side 0
    # carries then depend on the parity of the line count.  Their R3 image
    # is the point reflection of the conversion; the composed mirrors of a
    # conversion of 11 states would have over 10^9.
    for i in range(16):
        a = random_ghbfa(rng, max_per_partition=2)
        base = hbfa_to_hrfa(a)
        for e in ("r3", "R3"):
            d1, built = DirectionMode(BOUSTROPHEDON, e), family_normalizer(base, e)
            assert equal_at_every_size(a, d1, built, CR) is True, (i, d1.code)
            assert equivalent(a, d1, built, CR, AB, BOUND6) is None, (i, d1.code)
            for size in sizes:
                assert exact_equivalent_for_size(a, d1, built, CR, size) is None, (
                    i, d1.code, size)
    rng = random.Random(909)
    pool = [random_ghrfa(rng, max_states=3) for _ in range(6)]
    pool += [random_ghbfa(rng, max_per_partition=1) for _ in range(4)]
    pool += [random_ghbfa(rng, max_per_partition=2) for _ in range(6)]
    for i, a in enumerate(pool):
        if a.kind == BOUSTROPHEDON:
            base, d_in = hbfa_to_hrfa(a), CB
        else:
            base, d_in = a, CR
        built = {k: family_normalizer(base, k) for k in ("r0", "r3")}
        for g in OP_NAMES:
            k = "r0" if is_rotation(g) else "r3"
            d1 = DirectionMode(d_in.kind, invert(g))
            d2 = DirectionMode(RETURNING, compose(k, invert(g)))
            assert equal_at_every_size(a, d1, built[k], d2) is True, (i, g)
            assert equivalent(a, d1, built[k], d2, AB, BOUND6) is None, (i, g)
            for size in sizes:
                assert exact_equivalent_for_size(a, d1, built[k], d2, size) is None, (i, g, size)
    _report(14, time.time() - start, 60,
            "30 automata x {r0, r3, R3} + 16 x {r3, R3} + 16 automata x 12 elements, "
            "at every size and x 216 sizes")
