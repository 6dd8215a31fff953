"""Print the make-up of each workload's inputs for one seed.

    python3 perfbench/describe.py --seed 1

Counts the operations of one round by kind, the machine and picture sizes,
the verdict shares, and (for scan) the share of `run` calls whose frontier
is still non-empty after the last border read.  Nothing is timed.
"""

from __future__ import annotations

import argparse
import collections
import os
import shutil

import run
import workloads


def describe_gate_bounded(wl) -> None:
    wl.prepare_checks()
    kinds = collections.Counter(op.kind for op in wl.ops)
    equal = sum(wl.expected[b, a][0] == 0 for _, b, a in wl.questions if a != b)
    cross = sum(a != b for _, b, a in wl.questions)
    sizes = collections.Counter(len(m.forward) + len(m.backward) for m in wl.sources)
    print(f"  operations per round: {len(wl.ops)}")
    for kind, n in sorted(kinds.items()):
        print(f"    {kind:24s} {n:4d}  {100 * n / len(wl.ops):5.1f}%")
    print(f"  source states: {dict(sorted(sizes.items()))}")
    print(f"  cross questions answered EQUAL: {equal} of {cross}")


def describe_gate_exact(wl) -> None:
    wl.prepare_checks()
    kinds = collections.Counter(op.kind for op in wl.ops)
    print(f"  operations per round: {len(wl.ops)}")
    for kind, n in sorted(kinds.items()):
        print(f"    {kind:24s} {n:4d}  {100 * n / len(wl.ops):5.1f}%")
    states = collections.Counter(len(a.states) for a in wl.built)
    print(f"  construction states: {dict(sorted(states.items()))}")
    equal = sum(map(sum, wl.cross_equal))
    print(f"  cross questions (pair, size) answered equal: {equal} of "
          f"{sum(map(len, wl.cross_equal))}")


def describe_scan(wl) -> None:
    wl.prepare_checks()
    hx = wl.hx
    live = accepted = calls = 0
    for a, _, _, p, _ in wl.cases:
        for mode in wl.modes[a.kind]:
            ok, trace = hx.automata.run(a, p, mode, trace=True)
            calls += 1
            accepted += ok
            live += bool(trace.steps[-1].states_after)
    states = collections.Counter(len(a.states) for a, _, _ in wl.machines)
    cells = sorted(sum(map(len, p.rows)) for p in wl.program_pictures)
    print(f"  operations per round: {len(wl.ops)} ({len(wl.fooling)} on the witness)")
    print(f"  machine states: {dict(sorted(states.items()))}")
    print(f"  picture cells: {cells}")
    print(f"  run calls per round: {calls}; accepted {100 * accepted / calls:.1f}%, "
          f"frontier non-empty at the end {100 * live / calls:.1f}%")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workdir = os.path.join(run.OUT, f"describe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, show in (("gate-bounded", describe_gate_bounded),
                           ("gate-exact", describe_gate_exact), ("scan", describe_scan)):
            print(f"{name} (seed {args.seed})")
            show(workloads.WORKLOADS[name](run.fresh_import(), args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
