"""Command-line interface.

Exit codes: 0 accept/equal/success, 1 reject/not-equal, 2 usage error,
3 file or format error.  Structured output uses the %HXP / %HXA text formats
so results can be fed back in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import hexgrid, langtools, symmetry, transforms
from .automata import parse_automaton, run, serialize_automaton, determinize
from .hexgrid import FormatError
from .scan import canonical_mode, parse_direction
from .symmetry import OP_NAMES, check_op


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc.strerror or exc}") from None


def _load_picture(path: str) -> hexgrid.HexPicture:
    return hexgrid.parse_picture(_read_text(path))


def _load_automaton(path: str):
    return parse_automaton(_read_text(path))


def _cmd_render(args) -> int:
    picture = _load_picture(args.picture)
    sys.stdout.write(hexgrid.render_ascii(picture, with_border=args.border) + "\n")
    return 0


def _cmd_transform(args) -> int:
    op = check_op(args.op)
    picture = _load_picture(args.picture)
    _write_output(hexgrid.serialize_picture(symmetry.apply_op(op, picture)), args.output)
    return 0


def _cmd_run(args) -> int:
    a, default_dir = _load_automaton(args.automaton)
    if args.direction:
        mode = parse_direction(args.direction)
    else:
        mode = default_dir or canonical_mode(a.kind)
    picture = _load_picture(args.picture)
    if args.trace:
        accepted, trace = run(a, picture, mode, trace=True)
        # the picture's rows, each consumed cell erased as its step is printed
        rows = [list(row) for row in picture.rows]
        for step in trace.steps:
            states = "{" + ",".join(step.states_after) + "}"
            if step.cell is None:
                snap = "/".join(" ".join(row) for row in rows)
                line = f"{step.position:4d} {step.mode_flag} # -> {states} | {snap}"
            else:
                r, q = step.cell
                rows[r][q - hexgrid.offset(picture.size, r)] = hexgrid.ERASED_SYMBOL
                line = (
                    f"{step.position:4d} {step.mode_flag} "
                    f"({r},{q})={step.symbol} -> {states}"
                )
            sys.stdout.write(line + "\n")
    else:
        accepted = run(a, picture, mode)
    sys.stdout.write("ACCEPT\n" if accepted else "REJECT\n")
    return 0 if accepted else 1


def _cmd_determinize(args) -> int:
    a, direction = _load_automaton(args.automaton)
    _write_output(serialize_automaton(determinize(a), direction), args.output)
    return 0


def _cmd_to_rfa(args) -> int:
    a, _ = _load_automaton(args.automaton)
    _write_output(serialize_automaton(transforms.hbfa_to_hrfa(a)), args.output)
    return 0


def _cmd_mirror(args) -> int:
    a, _ = _load_automaton(args.automaton)
    _write_output(
        serialize_automaton(transforms.family_normalizer(a, args.target)), args.output
    )
    return 0


def _cmd_enum(args) -> int:
    alphabet = sorted({tok for tok in args.alphabet.split(",") if tok})
    if not alphabet:
        raise ValueError("alphabet must name at least one symbol")
    for tok in alphabet:
        hexgrid._check_symbol(tok)
    bound = langtools.SizeBound.max_side(args.max_side)
    if args.count_only:
        total = 0
        for size in bound.sorted_sizes():
            count = len(alphabet) ** hexgrid.cell_count(size)
            total += count
            sys.stdout.write(f"size {size.l} {size.m} {size.n}: {count}\n")
        sys.stdout.write(f"total: {total}\n")
        return 0
    first = True
    for picture in langtools.enumerate_pictures(alphabet, bound):
        if not first:
            sys.stdout.write("\n")
        sys.stdout.write(hexgrid.serialize_picture(picture))
        first = False
    return 0


def _cmd_equiv(args) -> int:
    a1, _ = _load_automaton(args.a1)
    a2, _ = _load_automaton(args.a2)
    d1 = parse_direction(args.d1)
    d2 = parse_direction(args.d2)
    op = check_op(args.op)
    alphabet = a1.alphabet & a2.alphabet
    if not alphabet:
        raise ValueError("the automata share no alphabet symbols")
    bound = langtools.SizeBound.max_side(args.max_side)
    witness = langtools.equivalent(a1, d1, a2, d2, alphabet, bound, op)
    if witness is None:
        sys.stdout.write("EQUAL\n")
        return 0
    sys.stderr.write("not equal; smallest counterexample follows on stdout\n")
    sys.stdout.write(hexgrid.serialize_picture(witness))
    return 1


def _cmd_group(args) -> int:
    if args.table:
        ops = list(OP_NAMES)
        width = max(len(op) for op in ops)
        header = "o".ljust(width) + " " + " ".join(op.ljust(width) for op in ops)
        sys.stdout.write(header.rstrip() + "\n")
        for g in ops:
            row = [g.ljust(width)]
            row.extend(symmetry.compose(g, h).ljust(width) for h in ops)
            sys.stdout.write(" ".join(row).rstrip() + "\n")
        return 0
    if args.normal_form:
        word = symmetry.normal_form(check_op(args.normal_form))
        sys.stdout.write(" ".join(word) + "\n")
        return 0
    if args.compose:
        g, h = (check_op(op) for op in args.compose)
        sys.stdout.write(symmetry.compose(g, h) + "\n")
        return 0
    raise ValueError("group requires one of --table, --normal-form, --compose")


def _add_render(sub) -> None:
    p = sub.add_parser("render", help="pretty-print a picture")
    p.add_argument("picture")
    p.add_argument("--border", action="store_true", help="include the # ring")
    p.set_defaults(fn=_cmd_render)


def _add_transform(sub) -> None:
    p = sub.add_parser("transform", help="apply a symmetry op to a picture")
    p.add_argument("--op", required=True)
    p.add_argument("picture")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_transform)


def _add_run(sub) -> None:
    p = sub.add_parser("run", help="run an automaton on a picture")
    p.add_argument("--automaton", required=True)
    p.add_argument("--direction", help="direction code, e.g. B:R0 (default: file or canonical)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("picture")
    p.set_defaults(fn=_cmd_run)


def _add_determinize(sub) -> None:
    p = sub.add_parser("determinize", help="subset construction")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_determinize)


def _add_to_rfa(sub) -> None:
    p = sub.add_parser("to-rfa", help="convert a boustrophedon automaton to a returning one")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_to_rfa)


def _add_mirror(sub) -> None:
    p = sub.add_parser("mirror", help="mirror a returning automaton's language")
    p.add_argument("--target", required=True, choices=["r0", "r3", "R3"])
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_mirror)


def _add_enum(sub) -> None:
    p = sub.add_parser("enum", help="enumerate pictures up to a size bound")
    p.add_argument("--alphabet", required=True, help="comma-separated symbols")
    p.add_argument("--max-side", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_enum)


def _add_equiv(sub) -> None:
    p = sub.add_parser("equiv", help="compare two bounded languages up to a symmetry op")
    p.add_argument("--a1", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--op", default="R0")
    p.add_argument("--max-side", type=int, default=2)
    p.set_defaults(fn=_cmd_equiv)


def _add_group(sub) -> None:
    p = sub.add_parser("group", help="inspect the symmetry group")
    p.add_argument("--table", action="store_true")
    p.add_argument("--normal-form", metavar="OP")
    p.add_argument("--compose", nargs=2, metavar=("G", "H"))
    p.set_defaults(fn=_cmd_group)


# Each command's subparser builder, in the order help lists the commands.
_SUBPARSERS = {
    "render": _add_render,
    "transform": _add_transform,
    "run": _add_run,
    "determinize": _add_determinize,
    "to-rfa": _add_to_rfa,
    "mirror": _add_mirror,
    "enum": _add_enum,
    "equiv": _add_equiv,
    "group": _add_group,
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The `hexscan` parser, with subparsers for `commands` (default: all)."""
    parser = argparse.ArgumentParser(
        prog="hexscan",
        description="Hexagonal pictures, their symmetry group, and scanning automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _SUBPARSERS.items():
        if commands is None or name in commands:
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named command's subparser is built: all nine cost several
    # times as much. Text that lists every command (help, a missing or
    # unknown command, leftover arguments) comes from the full parser.
    named = argv[:1] if argv and argv[0] in _SUBPARSERS else None
    try:
        args, leftover = build_parser(named).parse_known_args(argv)
        if leftover:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
