import pytest

from hexscan import (
    BOUSTROPHEDON,
    DirectionMode,
    RETURNING,
    automaton,
    canonical_mode,
    compose,
    invert,
    validate,
)
from hexscan.langtools import SizeBound, accepted_set, bounded_equivalent, image_set
from hexscan.transforms import (
    expected_output_states,
    family_normalizer,
    hbfa_to_hrfa,
    mirror_line_order,
    mirror_within_lines,
)
from hexscan.symmetry import OP_NAMES, is_rotation

from conftest import (
    m_all,
    m_none,
    m_parity,
    m_pipe_named,
    r_pipe_named,
    random_ghbfa,
    random_ghrfa,
)

BOUND = SizeBound.max_side(2)
CB = canonical_mode(BOUSTROPHEDON)
CR = canonical_mode(RETURNING)
AB = ("a", "b")


def returning_all():
    return automaton(RETURNING, ["f"], [], AB,
                     [("f", "a", "f"), ("f", "b", "f")], [("f", "f")], "f", ["f"])


def test_hbfa_to_hrfa_validates_and_counts():
    a = m_all()
    out = hbfa_to_hrfa(a)
    assert out.kind == RETURNING
    assert validate(out) == []
    n = len(a.states)
    assert len(out.states) == expected_output_states("hbfa-to-hrfa", n) == n**3 + n**2 + 1


def test_hbfa_to_hrfa_requires_boustrophedon():
    with pytest.raises(ValueError):
        hbfa_to_hrfa(returning_all())


def test_hbfa_to_hrfa_m_all_and_m_parity():
    assert bounded_equivalent(m_all(), CB, hbfa_to_hrfa(m_all()), CR, AB, BOUND) is None
    par = m_parity(alphabet=AB)
    assert bounded_equivalent(par, CB, hbfa_to_hrfa(par), CR, AB, BOUND) is None


def test_hbfa_to_hrfa_random_pool(rng):
    for _ in range(12):
        a = random_ghbfa(rng)
        assert bounded_equivalent(a, CB, hbfa_to_hrfa(a), CR, AB, BOUND) is None


def test_mirror_within_lines_counts_and_language(rng):
    a = returning_all()
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
        assert p.get(scan_lines(p.size, CR).lines[0][-1]) == "b"


def test_mirror_line_order_language(rng):
    a = returning_all()
    out = mirror_line_order(a)
    assert validate(out) == []
    n = len(a.states)
    assert len(out.states) == expected_output_states("mirror-line-order", n)
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


def test_family_normalizer_dispatch(rng):
    a = random_ghrfa(rng)
    assert family_normalizer(a, "R0") is a
    assert family_normalizer(a, "r0") == mirror_within_lines(a)
    assert family_normalizer(a, "r3") == mirror_line_order(a)
    with pytest.raises(ValueError):
        family_normalizer(a, "R1")
    r3both = family_normalizer(a, "R3")
    assert bounded_equivalent(a, CR, r3both, CR, AB, BOUND, op="R3") is None


def test_constructions_refuse_colliding_state_names():
    # 1[a|b|c] names both (a, b|c) and (a|b, c): 253 states, 236 names
    with pytest.raises(ValueError, match="253 states render as only 236 distinct names"):
        hbfa_to_hrfa(m_pipe_named())
    for build in (mirror_within_lines, mirror_line_order, lambda a: family_normalizer(a, "R3")):
        with pytest.raises(ValueError, match="distinct names"):
            build(r_pipe_named())


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
