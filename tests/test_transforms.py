import itertools
import random
from dataclasses import replace

import pytest

from hexscan import (
    BOUSTROPHEDON,
    DirectionMode,
    HexSize,
    RETURNING,
    automaton,
    canonical_mode,
    compose,
    invert,
    validate,
)
from hexscan.langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    exact_equivalent_for_size,
    image_set,
)
from hexscan.transforms import (
    family_normalizer,
    hbfa_to_hrfa,
    mirror_line_order,
    mirror_within_lines,
    point_reflection,
)
from hexscan.symmetry import OP_NAMES

from conftest import (
    expected_output_states,
    is_rotation,
    m_all,
    m_none,
    m_parity,
    m_pipe_named,
    r_all,
    r_pipe_named,
    random_ghbfa,
    random_ghrfa,
    symbol_at,
)

BOUND = SizeBound.max_side(2)
CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)
AB = ("a", "b")


def test_hbfa_to_hrfa_validates_and_counts():
    a = m_all()
    out = hbfa_to_hrfa(a)
    assert out.kind == RETURNING
    assert validate(out) == []
    count = 1 + len(a.forward_states) + len(a.backward_states) ** 3
    assert len(out.states) == expected_output_states("hbfa-to-hrfa", a) == count


def test_hbfa_to_hrfa_requires_boustrophedon():
    with pytest.raises(ValueError):
        hbfa_to_hrfa(r_all())
    # and the mirrors a returning machine
    for build in (mirror_within_lines, point_reflection):
        with pytest.raises(ValueError, match="^input must be a returning automaton$"):
            build(m_all())


def test_hbfa_to_hrfa_m_all_and_m_parity():
    assert bounded_equivalent(m_all(), CB, hbfa_to_hrfa(m_all()), CR, AB, BOUND) is None
    par = m_parity(alphabet=AB)
    assert bounded_equivalent(par, CB, hbfa_to_hrfa(par), CR, AB, BOUND) is None


def test_hbfa_to_hrfa_random_pool(rng):
    for _ in range(12):
        a = random_ghbfa(rng)
        assert bounded_equivalent(a, CB, hbfa_to_hrfa(a), CR, AB, BOUND) is None


def test_conversion_pool_tells_conversion_from_unreversed_reading():
    # criterion 7's pool tells the conversion from the input read with every
    # line unreversed on only 2 of its 30 machines; here on every machine
    rng = random.Random(1707)
    kept = []
    for _ in range(400):
        a = random_ghbfa(rng, max_per_partition=3)
        if bounded_equivalent(a, CB, replace(a, kind=RETURNING), CR, AB, BOUND) is not None:
            kept.append(a)
            if len(kept) == 20:
                break
    assert len(kept) == 20
    killed = {"1[": 0, "3[": 0}
    for i, a in enumerate(kept):
        conv = hbfa_to_hrfa(a)
        assert bounded_equivalent(a, CB, conv, CR, AB, BOUND) is None, i
        for prefix in killed:
            kept_finals = frozenset(f for f in conv.finals if not f.startswith(prefix))
            mutant = replace(conv, finals=kept_finals)
            killed[prefix] += bounded_equivalent(a, CB, mutant, CR, AB, BOUND) is not None
    # the pool sees final states in both kinds of line: forward lines' 1[i]
    # and backward lines' 3[i|j|k]
    assert killed["1["] >= 14 and killed["3["] >= 16, killed


def test_mirror_within_lines_counts_and_language(rng):
    a = r_all()
    out = mirror_within_lines(a)
    assert validate(out) == []
    assert len(out.states) == len(a.states) ** 3 + 1
    assert bounded_equivalent(a, CR, out, CR, AB, BOUND, op="r0") is None
    for _ in range(10):
        a = random_ghrfa(rng)
        assert bounded_equivalent(a, CR, mirror_within_lines(a), CR, AB, BOUND, op="r0") is None


def test_mirror_within_lines_first_cell_becomes_last():
    # requires the first cell of the first scan line to hold b
    a = automaton(RETURNING, ["s", "ok"], [], AB,
                  [("s", "b", "ok"), ("ok", "a", "ok"), ("ok", "b", "ok")],
                  [("ok", "ok")], "s", ["ok"])
    image = image_set(accepted_set(a, CR, AB, BOUND), "r0")
    direct = accepted_set(mirror_within_lines(a), CR, AB, BOUND)
    assert image.members == direct.members
    # in the image the constraint sits on the last cell of the first line
    from hexscan import scan_lines

    for p in direct.members:
        assert symbol_at(p, scan_lines(p.size, CR).lines[0][-1]) == "b"


def test_mirror_line_order_language(rng):
    a = r_all()
    out = mirror_line_order(a)
    assert validate(out) == []
    assert len(out.states) == expected_output_states("mirror-line-order", a)
    assert bounded_equivalent(a, CR, out, CR, AB, BOUND, op="r3") is None
    for _ in range(10):
        a = random_ghrfa(rng)
        assert bounded_equivalent(a, CR, mirror_line_order(a), CR, AB, BOUND, op="r3") is None


def test_first_line_constraint_moves_to_last_line():
    # accepts pictures whose first scanned line is all b and the rest all a
    a = automaton(RETURNING, ["s", "rest"], [], AB,
                  [("s", "b", "s"), ("rest", "a", "rest")],
                  [("s", "rest"), ("rest", "rest")], "s", ["rest"])
    image = image_set(accepted_set(a, CR, AB, BOUND), "r3")
    direct = accepted_set(mirror_line_order(a), CR, AB, BOUND)
    assert image.members == direct.members


def test_mirror_composition_is_point_reflection(rng):
    for _ in range(6):
        a = random_ghrfa(rng)
        comp = mirror_line_order(mirror_within_lines(a))
        assert bounded_equivalent(a, CR, comp, CR, AB, BOUND, op="R3") is None
    assert compose("r3", "r0") == "R3"


def test_mirror_compositions_exact_to_side_4():
    # criterion 8's pool at every size with max side at most 4, by the exact
    # oracle: the reversal undoes itself, and r3 = r0 then R3 = R3 then r0
    rng = random.Random(808)
    pool = [random_ghrfa(rng, max_states=3) for _ in range(30)]
    sizes = [HexSize(*s) for s in itertools.product(range(1, 5), repeat=3)]
    for i, a in enumerate(pool):
        twice = point_reflection(point_reflection(a))
        r3 = mirror_line_order(a)
        other_order = mirror_within_lines(point_reflection(a))
        for size in sizes:
            assert exact_equivalent_for_size(a, CR, twice, CR, size) is None, (i, size)
            assert exact_equivalent_for_size(r3, CR, other_order, CR, size) is None, (i, size)


def _asymmetric_pool(op, seed):
    """20 random returning machines whose language differs from its op-image at max side 2."""
    rng = random.Random(seed)
    kept = []
    for _ in range(400):
        a = random_ghrfa(rng, max_states=3)
        if bounded_equivalent(a, CR, a, CR, AB, BOUND, op=op) is not None:
            kept.append(a)
            if len(kept) == 20:
                return kept
    raise AssertionError(f"400 draws gave only {len(kept)} machines unlike their {op} image")


@pytest.mark.parametrize("op, build", [("R3", point_reflection), ("r3", mirror_line_order),
                                       ("r0", mirror_within_lines)])
def test_mirror_pool_tells_mirror_from_identity(op, build):
    # criterion 8's pool lets the identity pass on 25 of 30 machines; here
    # every machine's language differs from its own image, so it cannot,
    # and another mirror fails on most machines
    other = {"R3": mirror_line_order, "r3": point_reflection, "r0": mirror_line_order}[op]
    wrong_mirror = 0
    for i, a in enumerate(_asymmetric_pool(op, seed=1808)):
        assert bounded_equivalent(a, CR, build(a), CR, AB, BOUND, op=op) is None, i
        identity = family_normalizer(a, "R0")
        assert bounded_equivalent(a, CR, identity, CR, AB, BOUND, op=op) is not None, i
        wrong_mirror += bounded_equivalent(a, CR, other(a), CR, AB, BOUND, op=op) is not None
    assert wrong_mirror >= 14


def test_family_normalizer_dispatch(rng):
    a = random_ghrfa(rng)
    assert family_normalizer(a, "R0") is a
    assert family_normalizer(a, "r0") == mirror_within_lines(a)
    assert family_normalizer(a, "r3") == mirror_line_order(a)
    with pytest.raises(ValueError):
        family_normalizer(a, "R1")
    r3both = family_normalizer(a, "R3")
    assert bounded_equivalent(a, CR, r3both, CR, AB, BOUND, op="R3") is None


def test_constructions_build_pipe_named_states():
    # output states are named by input positions, never by pasting input
    # names, so state names holding the old separator `|` change nothing
    sizes = [HexSize(*s) for s in itertools.product(range(1, 5), repeat=3)]
    m, r = m_pipe_named(), r_pipe_named()
    conv, r0, r3 = hbfa_to_hrfa(m), mirror_within_lines(r), mirror_line_order(r)
    assert (len(conv.states), len(r0.states), len(r3.states)) == (31, 28, 30)
    assert bounded_equivalent(m, CB, conv, CR, ("0", "1"), BOUND) is None
    assert bounded_equivalent(r, CR, r0, CR, ("0", "1"), BOUND, op="r0") is None
    assert bounded_equivalent(r, CR, r3, CR, ("0", "1"), BOUND, op="r3") is None
    # the exact oracle reads r0 directly, each line reversed, and r3 as
    # test_mirror_compositions_exact_to_side_4 does, by r3 = R3 r0 = r0 R3
    other_order = mirror_within_lines(point_reflection(r))
    within = DirectionMode(RETURNING, "r0")
    for size in sizes:
        assert exact_equivalent_for_size(m, CB, conv, CR, size) is None, size
        assert exact_equivalent_for_size(r, within, r0, CR, size) is None, size
        assert exact_equivalent_for_size(r3, CR, other_order, CR, size) is None, size
    out = family_normalizer(r, "R3")
    assert len(out.states) == len(r.states) + 2 == 5
    assert bounded_equivalent(r, CR, out, CR, ("0", "1"), BOUND, op="R3") is None
    assert len(point_reflection(out).states) == 7


def test_closure_pipeline_all_group_elements(rng):
    # every symmetry image of a machine's language is realized by a mirror
    # construction plus a direction mode: g = inverse(e) after k with k a
    # single-mirror target and e the evaluation mode's element
    pool = [random_ghrfa(rng, max_states=2) for _ in range(3)]
    pool += [random_ghbfa(rng, max_per_partition=1) for _ in range(2)]
    for a in pool:
        if a.kind == BOUSTROPHEDON:
            base, d_in = hbfa_to_hrfa(a), CB
        else:
            base, d_in = a, CR
        for g in OP_NAMES:
            k = "r0" if is_rotation(g) else "r3"
            e = compose(k, invert(g))
            built = family_normalizer(base, k)
            w = bounded_equivalent(a, d_in, built, DirectionMode(RETURNING, e),
                                   AB, BOUND, op=g)
            assert w is None, (g, k, e)
