"""Mutation analysis of the verdict code: would a test notice a wrong oracle?

Run from the root of a checkout:

    python tests/mutate.py

It runs every mutant, one after another; to mutate fewer definitions, edit
`TARGETS`.  A mutant changes one operator or constant inside one of the
functions or classes `TARGETS` names; annotations are never changed.  The operators
(DeMillo, Lipton & Sayward, IEEE Computer 1978; Offutt et al., ACM TOSEM
1996): each comparison swapped for its neighbour; `|` and `&`, `+` and `-`
swapped, `^` made `|`; `and` and `or` swapped; `not` and `~` dropped; an int
constant below 100 made one larger, and a boolean flipped.

The checkout's `src/` and `tests/` are copied once into a temporary
directory.  Each mutant is written there, as `ast.unparse` of the mutated
module, and the tests `TESTS` maps its module to run against it in one
pytest process at a time, with `-x` and a 2 GiB address-space limit.  The
unmutated module, unparsed the same way, must pass first; that pass is
timed, and a mutant of the module gets `_TIMEOUT_FACTOR` times as long.  A
mutant is *killed* when its tests fail (the first failing test is printed),
*survived* when they pass and *timed out* when they do not end in time.
The file name keeps pytest from collecting this script.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# module under src/ -> the top-level functions and classes whose code is mutated
TARGETS = {
    "hexscan/langtools.py": ("_PairSearch", "_lines", "_certified", "_Question", "_aligned",
                             "_kept_question", "equal_at_every_size",
                             "_searched_difference", "equivalent",
                             "exact_equivalent_for_size", "bounded_equivalent",
                             "_enumerated_difference", "_accepted_words"),
    "hexscan/automata.py": ("_reversal",),
    "hexscan/scan.py": ("ScanPlan", "_axis", "_columns", "_line_lengths", "scan_lines",
                        "_carried_lines"),
}
# module under src/ -> the test files run against each of its mutants
TESTS = {
    "hexscan/langtools.py": ("tests/test_langtools.py", "tests/test_bounded_equivalent.py"),
    "hexscan/automata.py": ("tests/test_langtools.py", "tests/test_transforms.py"),
    "hexscan/scan.py": ("tests/test_scan.py", "tests/test_automata.py", "tests/test_langtools.py",
                        "tests/test_bounded_equivalent.py"),
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And,
}
_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.BitOr: "|", ast.BitAnd: "&", ast.Add: "+", ast.Sub: "-", ast.BitXor: "^",
    ast.And: "and", ast.Or: "or", ast.Not: "not", ast.Invert: "~",
}
# a mutant's tests may take this many times as long as the unmutated pass
_TIMEOUT_FACTOR = 3
_MEMORY_LIMIT = 2 << 30


def _walk(node: ast.AST, parent: ast.AST | None = None, field: str = "",
          index: int | None = None):
    """(node, parent, field, index in its list) for `node` and all below it, but annotations."""
    yield node, parent, field, index
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        if isinstance(value, list):
            for i, child in enumerate(value):
                if isinstance(child, ast.AST):
                    yield from _walk(child, node, name, i)
        elif isinstance(value, ast.AST):
            yield from _walk(value, node, name)


def _replace(parent: ast.AST, field: str, index: int | None, new: ast.AST) -> None:
    if index is None:
        setattr(parent, field, new)
    else:
        getattr(parent, field)[index] = new


def _mutations(tree: ast.Module, names: tuple[str, ...]):
    """Every mutation of the named definitions, in source order: (target, line, what, apply)."""
    found = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names}
    missing = set(names) - set(found)
    if missing:
        raise SystemExit(f"no top-level definition named {', '.join(sorted(missing))}")
    for name in names:
        for node, parent, field, index in _walk(found[name]):
            line = getattr(node, "lineno", None)
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    new = _SWAPS[type(op)]
                    yield (name, line, f"{_TEXT[type(op)]} -> {_TEXT[new]}",
                           lambda ops=node.ops, i=i, new=new: ops.__setitem__(i, new()))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                new = _SWAPS.get(type(node.op))
                if new is not None:
                    suffix = "=" if isinstance(node, ast.AugAssign) else ""
                    yield (name, line, f"{_TEXT[type(node.op)]}{suffix} -> {_TEXT[new]}{suffix}",
                           lambda node=node, new=new: setattr(node, "op", new()))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
                yield (name, line, f"drop {_TEXT[type(node.op)]}",
                       lambda p=parent, f=field, i=index, n=node: _replace(p, f, i, n.operand))
            elif isinstance(node, ast.Constant) and type(node.value) is bool:
                yield (name, line, f"{node.value} -> {not node.value}",
                       lambda node=node: setattr(node, "value", not node.value))
            elif isinstance(node, ast.Constant) and type(node.value) is int and node.value < 100:
                yield (name, line, f"{node.value} -> {node.value + 1}",
                       lambda node=node: setattr(node, "value", node.value + 1))


def _mutant(source: str, names: tuple[str, ...], k: int) -> str:
    """The module's source with its k-th mutation applied, unparsed."""
    tree = ast.parse(source)
    for i, (*_, apply) in enumerate(_mutations(tree, names)):
        if i == k:
            apply()
            return ast.unparse(tree)
    raise IndexError(k)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def _run_tests(copy: Path, tests: tuple[str, ...], timeout: float | None) -> tuple[str, str]:
    """Run `tests` in the copy: ("killed", first failure), ("survived", "") or ("timed out", "")."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timed out", ""
    if done.returncode == 0:
        return "survived", ""
    failed = [ln.split(" - ")[0] for ln in done.stdout.splitlines()
              if ln.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"pytest exit {done.returncode}"


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hexscan").is_dir():
        print("run from the root of a hexscan checkout", file=sys.stderr)
        return 1
    plan = []
    for module, names in TARGETS.items():
        source = (root / "src" / module).read_text()
        for k, (name, line, what, _) in enumerate(_mutations(ast.parse(source), names)):
            plan.append((module, names, source, k, name, line, what))
    counts = {"killed": 0, "survived": 0, "timed out": 0}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hexscan-mutants-") as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=ignore)
        shutil.copy(root / "pyproject.toml", copy)
        timeouts = {}
        for module in TARGETS:
            target = copy / "src" / module
            target.write_text(ast.unparse(ast.parse(target.read_text())))
            began = time.perf_counter()
            status, first = _run_tests(copy, TESTS[module], None)
            if status != "survived":
                print(f"the unmutated {module} does not pass: {status} {first}", file=sys.stderr)
                return 1
            timeouts[module] = _TIMEOUT_FACTOR * (time.perf_counter() - began)
            print(f"unmutated {module}: {timeouts[module] / _TIMEOUT_FACTOR:.0f} s, "
                  f"timeout {timeouts[module]:.0f} s", flush=True)
        for module, names, source, k, name, line, what in plan:
            target = copy / "src" / module
            target.write_text(_mutant(source, names, k))
            status, first = _run_tests(copy, TESTS[module], timeouts[module])
            target.write_text(source)
            counts[status] += 1
            print(f"{status:9} {module}:{line} {name}: {what}  {first}".rstrip(), flush=True)
    print(f"{len(plan)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['timed out']} timed out, in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
