"""Command-line interface.

Exit codes: 0 accept/equal/success, 1 reject/not-equal, 2 usage error,
3 file or format error.  Structured output uses the %HXP / %HXA text formats
so results can be fed back in.

The grammar is declared once, in `_GRAMMAR`.  `build_parser` builds the
argparse parser from it, and `main` reads a well-formed command line
straight from it (the command, then each option spelled exactly with its
value, or the one positional, no value beginning with `-`, no repeats).
Any other line, help and errors included, goes to the parser, so every
help, usage and error text is argparse's.
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
        cell_counts = [hexgrid.cell_count(size) for size in bound.sizes]
        counts = {n: len(alphabet) ** n for n in set(cell_counts)}
        total = sum(counts[n] for n in cell_counts)
        # the total bounds every count, so if it can be written, all can;
        # interpreters before 3.10.7 have no limit and no way to ask for one
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and total >= 10 ** limit:
            raise ValueError(f"the total count has more than {limit} digits, the most "
                             "sys.get_int_max_str_digits() lets an int be written with")
        for size in bound.sorted_sizes():
            count = counts[hexgrid.cell_count(size)]
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


# The command-line grammar: each command's help line, its function, and
# its arguments, each as the flags and keyword arguments of one
# `add_argument` call.  Commands and arguments are listed in the order help
# lists them; every option names its `dest`.
_GRAMMAR = {
    "render": ("pretty-print a picture", _cmd_render, [
        (("picture",), {}),
        (("--border",), dict(dest="border", action="store_true", help="include the # ring")),
    ]),
    "transform": ("apply a symmetry op to a picture", _cmd_transform, [
        (("--op",), dict(dest="op", required=True)),
        (("picture",), {}),
        (("-o", "--output"), dict(dest="output")),
    ]),
    "run": ("run an automaton on a picture", _cmd_run, [
        (("--automaton",), dict(dest="automaton", required=True)),
        (("--direction",), dict(
            dest="direction",
            help="direction code, e.g. B:R0 (default: file or canonical)")),
        (("--trace",), dict(dest="trace", action="store_true")),
        (("picture",), {}),
    ]),
    "determinize": ("subset construction", _cmd_determinize, [
        (("--automaton",), dict(dest="automaton", required=True)),
        (("-o", "--output"), dict(dest="output")),
    ]),
    "to-rfa": ("convert a boustrophedon automaton to a returning one", _cmd_to_rfa, [
        (("--automaton",), dict(dest="automaton", required=True)),
        (("-o", "--output"), dict(dest="output")),
    ]),
    "mirror": ("mirror a returning automaton's language", _cmd_mirror, [
        (("--target",), dict(dest="target", required=True, choices=["r0", "r3", "R3"])),
        (("--automaton",), dict(dest="automaton", required=True)),
        (("-o", "--output"), dict(dest="output")),
    ]),
    "enum": ("enumerate pictures up to a size bound", _cmd_enum, [
        (("--alphabet",), dict(dest="alphabet", required=True,
                               help="comma-separated symbols")),
        (("--max-side",), dict(dest="max_side", type=int, required=True)),
        (("--count-only",), dict(dest="count_only", action="store_true")),
    ]),
    "equiv": ("compare two bounded languages up to a symmetry op", _cmd_equiv, [
        (("--a1",), dict(dest="a1", required=True)),
        (("--d1",), dict(dest="d1", required=True)),
        (("--a2",), dict(dest="a2", required=True)),
        (("--d2",), dict(dest="d2", required=True)),
        (("--op",), dict(dest="op", default="R0")),
        (("--max-side",), dict(dest="max_side", type=int, default=2)),
    ]),
    "group": ("inspect the symmetry group", _cmd_group, [
        (("--table",), dict(dest="table", action="store_true")),
        (("--normal-form",), dict(dest="normal_form", metavar="OP")),
        (("--compose",), dict(dest="compose", nargs=2, metavar=("G", "H"))),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """The `hexscan` parser, with one subparser per command of the grammar."""
    parser = argparse.ArgumentParser(
        prog="hexscan",
        description="Hexagonal pictures, their symmetry group, and scanning automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, fn, arguments) in _GRAMMAR.items():
        p = sub.add_parser(name, help=help_line)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser()` gives for a well-formed `argv`, else None.

    Well-formed means: `argv[0]` is a command, and every later token is one
    of its option strings spelled exactly, followed by its value(s), or its
    one positional; no value or positional begins with `-`; an `int` value
    converts and a `choices` value is a member; no option is repeated and
    every required argument is present.  Any other spelling (help,
    abbreviations, `--opt=value`, `--`, repeats, errors) gives None, and
    argparse reads it.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, fn, arguments = _GRAMMAR[argv[0]]
    options, values, required = {}, {}, set()
    positional = None
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            positional = flags[0]
            required.add(positional)
            continue
        options.update(dict.fromkeys(flags, kwargs))
        store_true = kwargs.get("action") == "store_true"
        values[kwargs["dest"]] = kwargs.get("default", False if store_true else None)
        if kwargs.get("required"):
            required.add(kwargs["dest"])
    seen = set()
    at = 1
    while at < len(argv):
        token = argv[at]
        at += 1
        if not token.startswith("-"):
            if positional is None or positional in seen:
                return None
            seen.add(positional)
            values[positional] = token
            continue
        kwargs = options.get(token)
        if kwargs is None or kwargs["dest"] in seen:
            return None
        seen.add(kwargs["dest"])
        if kwargs.get("action") == "store_true":
            values[kwargs["dest"]] = True
            continue
        count = kwargs.get("nargs", 1)
        taken = argv[at:at + count]
        at += count
        if len(taken) < count or any(value.startswith("-") for value in taken):
            return None
        if "type" in kwargs:
            try:
                taken = [kwargs["type"](value) for value in taken]
            except ValueError:
                return None
        if "choices" in kwargs and any(value not in kwargs["choices"] for value in taken):
            return None
        values[kwargs["dest"]] = taken if "nargs" in kwargs else taken[0]
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], **values, fn=fn)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Building the argparse parser costs more than most commands' work (it
    # translates each of its strings through gettext), so a well-formed line
    # is read straight from the grammar.
    args = _read_argv(argv)
    if args is None:
        try:
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
