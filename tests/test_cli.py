import argparse
import hashlib
import random
import re
import subprocess
import sys

import pytest

from hexscan import (
    BOUSTROPHEDON,
    RETURNING,
    HexSize,
    cell_count,
    determinize,
    make_uniform,
    parse_automaton,
    parse_picture,
    scan_lines,
    serialize_automaton,
    serialize_picture,
    canonical_mode,
    parse_direction,
)
from hexscan.cli import _GRAMMAR, _read_argv, build_parser, main
from hexscan.hexgrid import Cell, cells
from hexscan.langtools import SizeBound, exact_equivalent_for_size

from test_symmetry import _COLS, TABLE
from conftest import (
    expected_output_states, is_deterministic, m_all, m_at_most, m_none, m_parity, m_pipe_named,
    m_plus_named, marker_picture, r_all, r_no_short_then_long, random_ghbfa, symbol_at,
)

COMMANDS = "render transform run determinize to-rfa mirror enum equiv group".split()


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
    # every cell, against the table written out independently of compose()
    expected = ["o  " + " ".join(_COLS)]
    expected += [" ".join([g] + [TABLE[g][h] for h in _COLS]) for g in _COLS]
    assert out == "\n".join(expected) + "\n"


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
    assert len(lines) - 1 == cell_count(size) + len(plan.lines)
    # border lines carry erased-cell snapshots
    border_lines = [ln for ln in lines[:-1] if " # -> " in ln]
    assert len(border_lines) == len(plan.lines)
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


# r4 and R2 read whole rows, so each border falls between rows; R1 reads
# lines across the rows, so each border leaves rows partly erased
@pytest.mark.parametrize("kind,direction",
                         [(BOUSTROPHEDON, "B:r4"), (RETURNING, "R:R2"), (BOUSTROPHEDON, "B:R1")])
def test_run_trace_snapshots_erase_the_cells_consumed_so_far(capsys, tmp_path, kind,
                                                             direction):
    size = HexSize(3, 4, 2)
    picture = marker_picture(size)
    pic = tmp_path / "m.hxp"
    pic.write_text(serialize_picture(picture))
    aut = tmp_path / "a.hxa"
    symbols = tuple(sorted({sym for row in picture.rows for sym in row}))
    aut.write_text(serialize_automaton(m_all(kind, symbols)))
    code, out, _ = run_cli(capsys, "run", "--automaton", str(aut),
                           "--direction", direction, "--trace", str(pic))
    assert code == 0
    consumed, borders = set(), 0
    for line in out.splitlines()[:-1]:
        if " # -> " in line:
            expected = "/".join(
                " ".join("_" if c in consumed else symbol_at(picture, c)
                         for c in cells(size) if c.r == r)
                for r in range(size.row_count)
            )
            assert line.split(" | ")[1] == expected
            borders += 1
        else:
            r, q, symbol = re.search(r"\((-?\d+),(-?\d+)\)=(\S+) ", line).groups()
            cell = Cell(int(r), int(q))
            assert cell not in consumed and symbol_at(picture, cell) == symbol
            consumed.add(cell)
    assert len(consumed) == cell_count(size)
    assert borders == len(scan_lines(size, parse_direction(direction)).lines)


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


def test_equiv_decides_sizes_enumeration_cannot_reach(capsys, tmp_path):
    # max side 4 holds 2^37 pictures at (4,4,4) alone; B:R0 against R:R0
    # reads the same lines in the same order, so every size is decided exactly
    paths = {}
    for most in (2, 3):
        src = tmp_path / f"at-most-{most}.hxa"
        src.write_text(serialize_automaton(m_at_most(most)))
        out = tmp_path / f"at-most-{most}-rfa.hxa"
        assert run_cli(capsys, "to-rfa", "--automaton", str(src), "-o", str(out))[0] == 0
        paths[most] = src, out

    def equiv(a1, a2, *extra):
        return run_cli(capsys, "equiv", "--a1", str(a1), "--d1", "B:R0", "--a2", str(a2),
                       "--d2", "R:R0", "--max-side", "4", *extra)

    assert equiv(*paths[2]) == (0, "EQUAL\n", "")
    code, out, _ = equiv(paths[2][0], paths[3][1])
    a1, a2 = m_at_most(2), parse_automaton(paths[3][1].read_text())[0]
    first = next(w for size in SizeBound.max_side(4).sorted_sizes()
                 if (w := exact_equivalent_for_size(a1, parse_direction("B:R0"), a2,
                                                    parse_direction("R:R0"), size)))
    assert (code, out) == (1, serialize_picture(first))
    # R1 turns the line family, so the large sizes would be enumerated
    code, out, err = equiv(*paths[2], "--op", "R1")
    assert (code, out) == (2, "") and err.startswith("error: the question needs ")
    # the refusal counts pictures and builds no plan, so a far larger bound is refused too
    code, out, err = run_cli(capsys, "equiv", "--a1", str(paths[2][0]), "--d1", "B:R0",
                             "--a2", str(paths[2][1]), "--d2", "R:R0", "--op", "R1",
                             "--max-side", "30")
    assert (code, out) == (2, "") and err.startswith("error: the question needs ")


def test_equiv_decides_reversed_order_questions_at_any_bound(capsys, tmp_path):
    # r3 and R3 read the same lines as R0 in reverse order, which the exact
    # oracle answers by reading one side reversed: max side 4 holds 2^37
    # pictures at (4,4,4) alone, and none is enumerated
    from hexscan import automaton

    # accepts iff the first cell read holds a
    first_a = automaton(RETURNING, ["s", "t", "u", "v"], [], ["a", "b"],
                        [("s", "a", "t"), ("t", "a", "t"), ("t", "b", "t"),
                         ("u", "a", "v"), ("u", "b", "v"), ("v", "a", "v"), ("v", "b", "v")],
                        [("t", "u"), ("v", "u")], "s", ["u"])
    src, reflected = tmp_path / "first-a.hxa", tmp_path / "reflected.hxa"
    src.write_text(serialize_automaton(first_a))
    assert run_cli(capsys, "mirror", "--target", "R3", "--automaton", str(src),
                   "-o", str(reflected))[0] == 0

    def equiv(op):
        return run_cli(capsys, "equiv", "--a1", str(src), "--d1", "R:R0", "--a2", str(reflected),
                       "--d2", "R:R0", "--op", op, "--max-side", "4")

    assert equiv("R3") == (0, "EQUAL\n", "")
    # r3 keeps each line's direction: the first cell of the last line, not
    # its last cell, is the image of the first cell read
    code, out, _ = equiv("r3")
    a2 = parse_automaton(reflected.read_text())[0]
    first = next(w for size in SizeBound.max_side(4).sorted_sizes()
                 if (w := exact_equivalent_for_size(first_a, parse_direction("R:r3"), a2,
                                                    parse_direction("R:R0"), size)))
    assert (code, out) == (1, serialize_picture(first))
    assert first.size == HexSize(1, 1, 2)


def test_equiv_prints_equal_where_only_words_no_size_reads_differ(capsys, tmp_path):
    # the two machines differ on words whose first line has 1 cell and
    # second at least 3, which the closure over words of nonempty lines
    # meets but no size reads: the pictures agree, so the answer is EQUAL
    paths = []
    for name, a in (("short-long", r_no_short_then_long()), ("all", r_all(("a",)))):
        paths.append(tmp_path / f"{name}.hxa")
        paths[-1].write_text(serialize_automaton(a))
    assert run_cli(capsys, "equiv", "--a1", str(paths[0]), "--d1", "R:R0", "--a2", str(paths[1]),
                   "--d2", "R:R0", "--max-side", "6") == (0, "EQUAL\n", "")


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
    assert is_deterministic(parsed)


def test_to_rfa_command(capsys, tmp_path):
    src = tmp_path / "a.hxa"
    src.write_text(serialize_automaton(m_parity()))
    code, out, _ = run_cli(capsys, "to-rfa", "--automaton", str(src))
    assert code == 0
    parsed, _ = parse_automaton(out)
    assert parsed.kind == "returning"


def test_determinize_builds_plus_named_states(capsys, tmp_path):
    # subsets are named by input positions, so `+` in an input name is no
    # separator to collide on
    path = tmp_path / "a.hxa"
    path.write_text(serialize_automaton(m_plus_named()))
    code, out, _ = run_cli(capsys, "determinize", "--automaton", str(path))
    assert code == 0
    assert parse_automaton(out)[0] == determinize(m_plus_named())


def test_to_rfa_builds_pipe_named_states(capsys, tmp_path):
    # the conversion names states by input positions, so `|` in an input
    # name is no separator to collide on
    path = tmp_path / "a.hxa"
    path.write_text(serialize_automaton(m_pipe_named()))
    code, out, _ = run_cli(capsys, "to-rfa", "--automaton", str(path))
    assert code == 0
    assert len(parse_automaton(out)[0].states) == 31


def test_mirror_command(capsys, tmp_path):
    from hexscan import RETURNING, automaton

    one = automaton(RETURNING, ["q"], [], ["a"], [("q", "a", "q")],
                    [("q", "q")], "q", ["q"])
    # the number of a is divisible by 3
    mod3 = automaton(RETURNING, ["z0", "z1", "z2"], [], ["a", "b"],
                     [(f"z{i}", "a", f"z{(i + 1) % 3}") for i in range(3)]
                     + [(f"z{i}", "b", f"z{i}") for i in range(3)],
                     [(f"z{i}", f"z{i}") for i in range(3)], "z0", ["z0"])
    sizes = {
        "r0": ("mirror-within-lines", lambda n: n**3 + 1),
        "r3": ("mirror-line-order", lambda n: n**3 + 3),
        "R3": ("point-reflection", lambda n: n + 2),
    }
    for a in (one, mod3):
        src = tmp_path / "r.hxa"
        src.write_text(serialize_automaton(a))
        n = len(a.states)
        for target, (construction, count) in sizes.items():
            code, out, _ = run_cli(capsys, "mirror", "--target", target,
                                   "--automaton", str(src))
            assert code == 0
            built = len(parse_automaton(out)[0].states)
            assert built == expected_output_states(construction, a) == count(n), (target, n)


def test_enum_count_only(capsys):
    code, out, _ = run_cli(capsys, "enum", "--alphabet", "a,b",
                           "--max-side", "2", "--count-only")
    assert code == 0
    assert out.endswith("total: 190\n")
    assert "size 2 2 2: 128" in out


def test_enum_count_only_refuses_counts_too_long_to_write(capsys):
    alphabet = ",".join(f"s{i}" for i in range(100))
    # the largest of these counts, 100^2,107 at (27,27,27), has 4,215 digits
    code, out, _ = run_cli(capsys, "enum", "--alphabet", alphabet,
                           "--max-side", "27", "--count-only")
    assert code == 0 and out.count("\n") == 27 ** 3 + 1
    digest = "c4d6ec01e4cf805c67c937f057b7599b66715fd0d0e9782b7d22ad8f1e0139da"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # 100^2,269 at (28,28,28) has 4,539: more than an int may be written with,
    # so nothing is written
    code, out, err = run_cli(capsys, "enum", "--alphabet", alphabet,
                             "--max-side", "28", "--count-only")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "sys.get_int_max_str_digits()" in err


def test_enum_pictures(capsys):
    code, out, _ = run_cli(capsys, "enum", "--alphabet", "a", "--max-side", "1")
    assert code == 0
    assert out == "%HXP 1\nsize: 1 1 1\nrow: a\n"
    # pictures are separated by one blank line
    code, out, _ = run_cli(capsys, "enum", "--alphabet", "a,b", "--max-side", "1")
    assert code == 0
    assert out == "%HXP 1\nsize: 1 1 1\nrow: a\n\n%HXP 1\nsize: 1 1 1\nrow: b\n"


def test_usage_error_exit_2(capsys, tmp_path, all_aut):
    assert main(["transform", "--op"]) == 2
    code, _, err = run_cli(capsys, "transform", "--op", "R7", "nowhere.hxp")
    assert code == 2
    code, out, err = run_cli(capsys, "enum", "--alphabet", ",", "--max-side", "1")
    assert (code, out, err) == (2, "", "error: alphabet must name at least one symbol\n")
    # two machines that share no symbol ask no question
    other = tmp_path / "other.hxa"
    other.write_text(serialize_automaton(m_all(alphabet=("c",))))
    code, out, err = run_cli(capsys, "equiv", "--a1", all_aut, "--d1", "B:R0",
                             "--a2", str(other), "--d2", "B:R0")
    assert (code, out) == (2, "")
    assert err == "error: the automata share no alphabet symbols\n"


def test_huge_declared_size_is_refused_before_any_row_work(capsys, tmp_path):
    # the row count is compared before the rows' widths are listed, which
    # would take time and memory in proportion to the declared size
    path = tmp_path / "huge.hxp"
    path.write_text("%HXP 1\nsize: 1000000000000 1 1\nrow: a\n")
    code, out, err = run_cli(capsys, "render", str(path))
    assert (code, out) == (3, "")
    assert err == "error: size (1000000000000,1,1) needs 1000000000000 row lines, got 1\n"


def test_format_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.hxp"
    bad.write_text("not a picture\n")
    code, _, err = run_cli(capsys, "render", str(bad))
    assert code == 3 and "error" in err
    code, _, _ = run_cli(capsys, "render", str(tmp_path / "missing.hxp"))
    assert code == 3
    # an output path that cannot be written
    good = tmp_path / "good.hxp"
    good.write_text(serialize_picture(make_uniform(HexSize(1, 1, 1), "a")))
    out_path = tmp_path / "no-such-dir" / "out.hxp"
    code, out, err = run_cli(capsys, "transform", "--op", "R1", str(good), "-o", str(out_path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {out_path}: ")


_USAGE_ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    *([command, "-h"] for command in COMMANDS),
    ["equiv", "--a1", "a.hxa", "--d1", "B:R0", "--a2", "b.hxa"],
    ["equiv", "--a1", "a.hxa", "--d1", "B:R0", "--a2", "b.hxa", "--d2", "B:R0", "extra"],
    ["mirror", "--target", "r9"],
    ["enum", "--max-side", "x"],
    ["group", "--compose", "R1"],
    # spellings main leaves to argparse
    ["enum", "--alphabet", "a,b", "--max", "1"],
    ["equiv", "--a1=x"],
    ["group", "--compose", "R1", "R1", "--compose", "r0", "r1"],
    ["enum", "--alphabet", "a", "--max-side", "1", "--"],
    ["transform", "-ofile"],
]


@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_usage_text_is_the_full_parsers(capsys, argv):
    # main reads well-formed lines without argparse; what it prints and
    # returns must be what the parser with all nine commands gives
    code = main(argv)
    out, err = capsys.readouterr()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        expected_code = exc.code or 0
    else:
        expected_code = args.fn(args)
    expected = capsys.readouterr()
    assert (code, out, err) == (expected_code, expected.out, expected.err)


def _corpus(rng, command, count):
    """Seeded argvs for `command`: well-formed lines, and each spelling argparse alone reads."""
    _, _, arguments = _GRAMMAR[command]
    good = {"--max-side": "2", "--target": "r3", "--compose": "R1 r2", "--d1": "B:R0",
            "--d2": "R:r0"}
    chunks = []
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            chunks.append(["p.hxp"])
        elif kwargs.get("action") == "store_true":
            chunks.append([rng.choice(flags)])
        else:
            chunks.append([flags[-1], *good.get(flags[-1], "x.hxa").split()])
    mutations = [
        lambda c: c + c[:1],                                              # a repeat
        lambda c: c + [["extra"]],                                        # another positional
        lambda c: c + [[rng.choice(["-h", "--help", "--", "--bogus"])]],
        lambda c: [[t[:-1] if t.startswith("--") else t for t in ch] for ch in c],  # abbreviated
        lambda c: [[f"{ch[0]}={ch[1]}", *ch[2:]] if len(ch) > 1 else ch for ch in c],
        lambda c: [ch[:1] + [rng.choice(["-1", "-x", "", "x", "+3", "r9", "07"])] + ch[2:]
                   if len(ch) > 1 else ch for ch in c],                   # odd values
        lambda c: [ch[:-1] if len(ch) > 1 else ch for ch in c],           # a value missing
    ]
    for _ in range(count):
        picked = [ch for ch in chunks if rng.random() < 0.85]
        rng.shuffle(picked)
        for _ in range(rng.choice([0, 0, 1, 2])):
            picked = rng.choice(mutations)(picked)
        yield [command] + [token for chunk in picked for token in chunk]


def test_reader_agrees_with_argparse(capsys):
    # every namespace main reads without argparse is the one argparse gives
    parser = build_parser()
    rng = random.Random(2020)
    accepted = 0
    argvs = [[], ["bogus"], ["-h"], ["--", "render", "p.hxp"]]
    for command in COMMANDS:
        argvs.extend(_corpus(rng, command, 150))
    for argv in argvs:
        args = _read_argv(argv)
        if args is None:
            continue
        accepted += 1
        assert vars(args) == vars(parser.parse_args(argv)), argv
    assert capsys.readouterr() == ("", "")
    assert accepted >= 500


@pytest.mark.parametrize("argv", [
    ["equiv", "--a1", "a", "--d1", "B:R0", "--a2", "a", "--d2", "B:r2", "--max-side", "1"],
    ["determinize", "--automaton", "a", "-o", "out"],
    ["mirror", "--automaton", "r", "--target", "R3", "--output", "out"],
])
def test_well_formed_lines_build_no_parser(tmp_path, monkeypatch, argv):
    (tmp_path / "a").write_text(serialize_automaton(m_all()))
    (tmp_path / "r").write_text(serialize_automaton(m_all(RETURNING)))
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(argv) == 0


def test_console_entry_point_runs():
    def hexscan(*argv):
        return subprocess.run([sys.executable, "-m", "hexscan.cli", *argv],
                              capture_output=True, text=True)

    proc = hexscan("group", "--compose", "r0", "r1")
    assert proc.returncode == 0
    assert proc.stdout == "R5\n"
    proc = hexscan("-h")
    assert proc.returncode == 0
    assert "{" + ",".join(COMMANDS) + "}" in proc.stdout
    proc = hexscan("bogus")
    assert proc.returncode == 2
    assert "(choose from " + ", ".join(f"'{c}'" for c in COMMANDS) + ")" in proc.stderr


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
