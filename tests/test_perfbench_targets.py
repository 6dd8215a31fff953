"""The benchmark's tracer wraps library functions by name, with no fallback.

Tier-1 runs the benchmark only untraced, so a renamed or deleted function
that the tracer names would break `perfbench/run.py --trace 1` unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_on_hexscan():
    tracing = _tracing()
    names = [f"{mod}.{fn}" for mod, fn in tracing.TARGETS]
    assert set(tracing.BUILDERS) <= set(names)
    for name in names:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"hexscan.{mod}"), fn, None)), name
