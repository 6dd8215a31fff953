"""hexscan's benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload gate-bounded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --self-check

Run from the root of a checkout; `hexscan` is imported from its `src/`.
With `--trace 0` the last line of stdout carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  Results and traces are
also written under `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("hexgrid", "symmetry", "scan", "automata", "transforms", "langtools", "cli")
SETUPS = 9            # set-ups per run; setup_s is their median
# Times are reported at a reference machine speed: each raw time is scaled
# by PROBE_REF_S over the mean time of a fixed pure-Python task (`probe_s`)
# run before a set-up or round, after it, and after every PROBE_EVERY
# operations.  On a shared machine whose speed drifts by a fifth within
# seconds and between minutes, this keeps runs comparable; raw times are
# kept in the result file.  PROBE_REF_S is the probe's typical time on the
# 2-core machine where the bounds were set.
PROBE_REF_S = 0.005
PROBE_EVERY = 24
# An operation without a deadline of its own that takes this long is wrong
# (its verdicts take milliseconds to a second) and ends the run.
STUCK_S = 20
MAX_ERRORS_SHOWN = 5


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def probe_s() -> float:
    """Seconds taken by a fixed dictionary-and-sort task, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for k in range(30_000):
            table[k & 4095] = (k * 7) ^ (k >> 3)
        sorted(table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def fresh_import():
    """Import hexscan from the checkout's src/, dropping any earlier import.

    Every set-up starts from module import, with empty caches.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "hexscan" or n.startswith("hexscan.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hexscan")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: hexscan imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"hexscan.{name}") for name in MODULES}
    hx = SimpleNamespace(**mods)
    hx.all_modules = lambda: [pkg, *mods.values()]
    hx.caches = lambda: list({id(f): f for mod in hx.all_modules() for f in vars(mod).values()
                              if callable(getattr(f, "cache_clear", None))}.values())
    return hx


def set_up(name, seed, workdir, tracer=None):
    """Import, input generation, set-up constructions and warm-up.

    The warm-up runs the first operation of each kind that has no deadline,
    so every code path the timed rounds take has run once.
    """
    hx = fresh_import()
    if tracer is not None:
        tracer.install(hx)
    wl = workloads.WORKLOADS[name](hx, seed, workdir)
    kinds = set()
    for op in wl.ops:
        if op.kind not in kinds and op.deadline is None:
            kinds.add(op.kind)
            _, result, fault = timed_op(op)
            if fault is not None:
                raise workloads.CheckFailed(f"warm-up {op.kind}: {result or 'no answer'}")
            wl.after_op(first_round=False)
    return hx, wl


def timed_op(op):
    """Run one operation; returns (seconds, result, error kind or None)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline or STUCK_S)
        start = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, result, None
    except DeadlineExceeded:
        elapsed = time.perf_counter() - start
        return elapsed, None, "deadline"
    except Exception as exc:  # a crash in the program is a wrong answer
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", "error"


def measure(name, seed, seconds, trace, workdir):
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = tracing.Tracer() if trace else None
    setup_times, setup_scaled, errors = [], [], []
    try:
        for _ in range(1 if trace else SETUPS):
            hx = wl = None
            gc.collect()
            before = probe_s()
            start = time.perf_counter()
            hx, wl = set_up(name, seed, workdir, tracer)
            setup_times.append(time.perf_counter() - start)
            scale = 2 * PROBE_REF_S / (before + probe_s())
            setup_scaled.append(setup_times[-1] * scale)
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "round"
        wl.prepare_checks()
    except workloads.CheckFailed as exc:
        errors.append(str(exc))

    latencies, round_s, throughput, by_kind = [], {False: [], True: []}, [], {}
    scaled, round_scaled, probes = [], {False: [], True: []}, []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while not errors:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(hx)
        round_probes = [probe_s()]
        round_start = time.perf_counter()
        round_busy = round_done = 0
        round_latencies = []
        for op in wl.ops:
            elapsed, result, fault = timed_op(op)
            if attempted % PROBE_EVERY == 0:
                round_probes.append(probe_s())
            attempted += 1
            round_latencies.append(elapsed)
            by_kind.setdefault(op.kind, []).append(elapsed)
            round_busy += elapsed
            round_done += fault is None
            if fault is not None:
                failed += 1
                if traced:
                    tracer.abandon_open()
                if fault == "error" or op.deadline is None:
                    errors.append(f"{op.kind}: {result or f'no answer within {STUCK_S} s'}")
                    break
            else:
                message = op.check(result)
                if message:
                    errors.append(f"{op.kind}: {message}")
            wl.after_op(first_round=rounds == 0)
        round_s[traced].append(time.perf_counter() - round_start)
        if traced:
            tracer.uninstall()
        round_probes.append(probe_s())
        probes.append(statistics.mean(round_probes))
        scale = PROBE_REF_S / probes[-1]
        latencies += round_latencies
        scaled += [t * scale for t in round_latencies]
        round_scaled[traced].append(round_s[traced][-1] * scale)
        if not traced:
            throughput.append(round_done / (round_busy * scale))
        rounds += 1
        enough = time.perf_counter() - start >= seconds
        if enough and (tracer is None or rounds >= 2):
            break

    if not latencies:  # a check failed before timing began
        metrics = {}
    elif trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in
                   tracer.layer_metrics(len(round_s[True])).items()}
        if round_s[True]:
            overhead = (statistics.median(round_scaled[True])
                        / statistics.median(round_scaled[False]) - 1)
            metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    else:
        deciles = statistics.quantiles(scaled, n=10) if len(scaled) > 1 else scaled * 9
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": statistics.median(throughput), "unit": "ops/s"},
            "op_ms_p50": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
            "op_ms_p90": {"value": 1000 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "states_built": {"value": wl.states_built, "unit": "states"},
        }
    for message in errors[:MAX_ERRORS_SHOWN]:
        print(f"wrong: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "rounds": rounds, "raw_setup_s": setup_times, "raw_round_s": round_s[False],
               "raw_traced_round_s": round_s[True], "probe_s": probes,
               "raw_op_ms_p50": 1000 * statistics.median(latencies) if latencies else None,
               "errors": errors[:MAX_ERRORS_SHOWN],
               "raw_op_ms_by_kind": {kind: {"ops": len(v), "p50": 1000 * statistics.median(v),
                                        "max": 1000 * max(v)} for kind, v in by_kind.items()}}
    return result, details, tracer


UNITS = {
    "cli.main_calls": "calls", "cli.main_self_ms": "ms",
    "automata.parse_automaton_ms": "ms", "automata.serialize_automaton_ms": "ms",
    "automata.validate_calls": "calls", "automata.validate_ms": "ms",
    "automata.run_calls": "calls", "automata.run_ms": "ms",
    "automata.run_cells_per_s": "cells/s", "automata.determinize_ms": "ms",
    "transforms.build_ms": "ms", "transforms.states_built": "states",
    "transforms.rules_built": "rules",
    "langtools.accepted_set_calls": "calls", "langtools.accepted_set_ms": "ms",
    "langtools.members": "pictures", "langtools.image_set_ms": "ms",
    "langtools.exact_calls": "calls", "langtools.exact_ms": "ms",
    "langtools.witness_search_ms": "ms",
    "symmetry.apply_op_calls": "calls", "symmetry.apply_op_ms": "ms",
    "symmetry.cell_map_ms": "ms",
    "scan.scan_lines_calls": "calls", "scan.scan_lines_ms": "ms",
    "hexgrid.picture_from_cells_calls": "calls", "hexgrid.picture_from_cells_ms": "ms",
}


def run_one(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, details, tracer = measure(args.workload, args.seed, args.seconds,
                                          args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**details, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{tag}.json"))
    for key, metric in result["metrics"].items():
        print(f"{args.workload:13s} {key:34s} {metric['value']:14.4f} {metric['unit']}")
    probe = 1000 * statistics.median(details["probe_s"]) if details["probe_s"] else 0.0
    print(f"{args.workload:13s} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, rounds {details['rounds']}, "
          f"probe {probe:.2f} ms (reference {1000 * PROBE_REF_S:.0f} ms)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
    return worst


def self_check() -> int:
    """One operation of each kind in each workload, with every check."""
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT, exist_ok=True)
    failures = 0
    for name in workloads.WORKLOADS:
        workdir = os.path.join(OUT, f"check-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            _, wl = set_up(name, 0, workdir)
            wl.prepare_checks()
            seen = {}
            for op in wl.ops:
                if op.kind in seen:
                    continue
                _, result, fault = timed_op(op)
                message = (f"failed ({fault}): {result}" if fault
                           else op.check(result) or "ok")
                wl.after_op(first_round=True)
                seen[op.kind] = message
                ok = message == "ok" or (fault == "deadline" and op.deadline is not None)
                failures += not ok
                print(f"{name:13s} {op.kind:22s} {message if ok else 'WRONG: ' + message}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hexscan", "__init__.py")):
        print(f"error: no hexscan package under {SRC}", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
