import subprocess
import sys

import pytest

from hexscan import (
    BOUSTROPHEDON,
    HexSize,
    cell_count,
    make_uniform,
    parse_automaton,
    parse_picture,
    scan_lines,
    serialize_automaton,
    serialize_picture,
    canonical_mode,
)
from hexscan.cli import main

from conftest import m_all, m_none, m_parity, m_pipe_named, m_plus_named, random_ghbfa


@pytest.fixture
def pic222(tmp_path):
    path = tmp_path / "p.hxp"
    path.write_text(serialize_picture(make_uniform(HexSize(2, 2, 2), "a")))
    return str(path)


@pytest.fixture
def all_aut(tmp_path):
    path = tmp_path / "all.hxa"
    path.write_text(serialize_automaton(m_all()))
    return str(path)


@pytest.fixture
def none_aut(tmp_path):
    path = tmp_path / "none.hxa"
    path.write_text(serialize_automaton(m_none()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_compose_bytes(capsys):
    code, out, err = run_cli(capsys, "group", "--compose", "R1", "R1")
    assert (code, out) == (0, "R2\n")


def test_group_normal_form(capsys):
    code, out, _ = run_cli(capsys, "group", "--normal-form", "r0")
    assert (code, out) == (0, "r1 R1\n")


def test_group_table(capsys):
    code, out, _ = run_cli(capsys, "group", "--table")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 13
    assert lines[1].split() == ["R0"] + "R0 R1 R2 R3 R4 R5 r0 r1 r2 r3 r4 r5".split()


def test_group_requires_an_action(capsys):
    code, _, err = run_cli(capsys, "group")
    assert code == 2 and "error" in err


def test_run_accept_bytes(capsys, all_aut, pic222):
    code, out, _ = run_cli(capsys, "run", "--automaton", all_aut,
                           "--direction", "B:R0", pic222)
    assert (code, out) == (0, "ACCEPT\n")


def test_run_reject_exit_code(capsys, none_aut, pic222):
    code, out, _ = run_cli(capsys, "run", "--automaton", none_aut,
                           "--direction", "B:R0", pic222)
    assert (code, out) == (1, "REJECT\n")


def test_run_trace_line_count(capsys, all_aut, pic222):
    code, out, _ = run_cli(capsys, "run", "--automaton", all_aut,
                           "--direction", "B:R0", "--trace", pic222)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ACCEPT"
    size = HexSize(2, 2, 2)
    plan = scan_lines(size, canonical_mode(BOUSTROPHEDON))
    assert len(lines) - 1 == cell_count(size) + plan.line_count
    # border lines carry erased-cell snapshots
    border_lines = [ln for ln in lines[:-1] if " # -> " in ln]
    assert len(border_lines) == plan.line_count
    assert "_" in border_lines[0]


def test_run_trace_snapshot_tracks_consumption_order(capsys, tmp_path):
    # with a single wide row, mode r3 scans right to left: after the first
    # border read only the rightmost cell may be erased
    pic = tmp_path / "row.hxp"
    pic.write_text("%HXP 1\nsize: 1 3 1\nrow: a a a\n")
    aut = tmp_path / "a.hxa"
    aut.write_text(serialize_automaton(m_all()))
    _, out, _ = run_cli(capsys, "run", "--automaton", str(aut),
                        "--direction", "B:r3", "--trace", str(pic))
    first_border = [ln for ln in out.splitlines() if " # -> " in ln][0]
    assert first_border.endswith("| a a _")


def test_run_trace_final_snapshot_fully_erased(capsys, all_aut, pic222):
    _, out, _ = run_cli(capsys, "run", "--automaton", all_aut,
                        "--direction", "B:R0", "--trace", pic222)
    last_border = [ln for ln in out.splitlines() if " # -> " in ln][-1]
    snapshot = last_border.split(" | ")[1]
    assert set(snapshot) <= {"_", " ", "/"}


def test_equiv_counterexample_bytes(capsys, all_aut, none_aut):
    code, out, _ = run_cli(capsys, "equiv", "--a1", all_aut, "--d1", "B:R0",
                           "--a2", none_aut, "--d2", "B:R0", "--op", "R0",
                           "--max-side", "2")
    assert code == 1
    assert out == "%HXP 1\nsize: 1 1 1\nrow: a\n"


def test_equiv_equal(capsys, all_aut):
    code, out, _ = run_cli(capsys, "equiv", "--a1", all_aut, "--d1", "B:R0",
                           "--a2", all_aut, "--d2", "B:r2", "--op", "R0",
                           "--max-side", "2")
    assert (code, out) == (0, "EQUAL\n")


def test_render(capsys, tmp_path):
    path = tmp_path / "p.hxp"
    path.write_text(serialize_picture(make_uniform(HexSize(3, 3, 3), "a")))
    code, out, _ = run_cli(capsys, "render", str(path))
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run_cli(capsys, "render", "--border", str(path))
    assert code == 0 and len(out.splitlines()) == 7


def test_transform_roundtrips(capsys, pic222, tmp_path):
    out_path = tmp_path / "out.hxp"
    code, _, _ = run_cli(capsys, "transform", "--op", "R1", pic222,
                         "-o", str(out_path))
    assert code == 0
    assert parse_picture(out_path.read_text()).size == HexSize(2, 2, 2)


def test_transform_marker_is_rotation(capsys, tmp_path):
    from conftest import marker_picture
    from hexscan import apply_op

    pic = marker_picture(HexSize(2, 3, 4))
    src = tmp_path / "m.hxp"
    src.write_text(serialize_picture(pic))
    code, out, _ = run_cli(capsys, "transform", "--op", "R2", str(src))
    assert code == 0
    assert parse_picture(out) == apply_op("R2", pic)


def test_determinize_command(capsys, tmp_path, rng):
    a = random_ghbfa(rng)
    src = tmp_path / "a.hxa"
    src.write_text(serialize_automaton(a))
    code, out, _ = run_cli(capsys, "determinize", "--automaton", str(src))
    assert code == 0
    parsed, _ = parse_automaton(out)
    from hexscan import is_deterministic

    assert is_deterministic(parsed)


def test_to_rfa_command(capsys, tmp_path):
    src = tmp_path / "a.hxa"
    src.write_text(serialize_automaton(m_parity()))
    code, out, _ = run_cli(capsys, "to-rfa", "--automaton", str(src))
    assert code == 0
    parsed, _ = parse_automaton(out)
    assert parsed.kind == "returning"


@pytest.mark.parametrize("command, machine", [
    ("determinize", m_plus_named),
    ("to-rfa", m_pipe_named),
])
def test_colliding_state_names_exit_2(capsys, tmp_path, command, machine):
    path = tmp_path / "a.hxa"
    path.write_text(serialize_automaton(machine()))
    code, out, err = run_cli(capsys, command, "--automaton", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_mirror_command(capsys, tmp_path):
    from hexscan import RETURNING, automaton

    a = automaton(RETURNING, ["q"], [], ["a"], [("q", "a", "q")],
                  [("q", "q")], "q", ["q"])
    src = tmp_path / "r.hxa"
    src.write_text(serialize_automaton(a))
    for target in ("r0", "r3", "R3"):
        code, out, _ = run_cli(capsys, "mirror", "--target", target,
                               "--automaton", str(src))
        assert code == 0
        parse_automaton(out)


def test_enum_count_only(capsys):
    code, out, _ = run_cli(capsys, "enum", "--alphabet", "a,b",
                           "--max-side", "2", "--count-only")
    assert code == 0
    assert out.endswith("total: 190\n")
    assert "size 2 2 2: 128" in out


def test_enum_pictures(capsys):
    code, out, _ = run_cli(capsys, "enum", "--alphabet", "a", "--max-side", "1")
    assert code == 0
    assert out == "%HXP 1\nsize: 1 1 1\nrow: a\n"


def test_usage_error_exit_2(capsys):
    assert main(["transform", "--op"]) == 2
    code, _, err = run_cli(capsys, "transform", "--op", "R7", "nowhere.hxp")
    assert code == 2


def test_format_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.hxp"
    bad.write_text("not a picture\n")
    code, _, err = run_cli(capsys, "render", str(bad))
    assert code == 3 and "error" in err
    code, _, _ = run_cli(capsys, "render", str(tmp_path / "missing.hxp"))
    assert code == 3


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hexscan.cli", "group", "--compose", "r0", "r1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "R5\n"


def test_run_uses_direction_from_file(capsys, tmp_path, pic222):
    # a direction line in the automaton file is the default for run
    path = tmp_path / "dir.hxa"
    from hexscan import DirectionMode

    path.write_text(serialize_automaton(m_none(), DirectionMode(BOUSTROPHEDON, "r2")))
    code, out, _ = run_cli(capsys, "run", "--automaton", str(path), pic222)
    assert (code, out) == (1, "REJECT\n")
    # explicit flag still wins
    code, out, _ = run_cli(capsys, "run", "--automaton", str(path),
                           "--direction", "B:R0", pic222)
    assert (code, out) == (1, "REJECT\n")


def test_output_deterministic(capsys, all_aut, pic222):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "run", "--automaton", all_aut,
                            "--direction", "B:r4", "--trace", pic222)
        outs.add(out)
    assert len(outs) == 1
