"""Spans and counts around the public functions of each hexscan module.

The tracer wraps functions from outside the library: it replaces a function
in every `hexscan` module that bound it by name, so calls made inside the
library (langtools calling `run`, symmetry calling `picture_from_cells`) are
seen too.  Each call records a span (name, start, end, parent, phase) in
memory; `install` and `uninstall` swap the wrappers in and out so untraced
rounds pay nothing.
"""

from __future__ import annotations

import functools
import json
import time

PHASES = ("setup", "round")

# The public functions wrapped, as (module, function).
TARGETS = (
    ("cli", "main"),
    ("automata", "parse_automaton"),
    ("automata", "serialize_automaton"),
    ("automata", "validate"),
    ("automata", "run"),
    ("automata", "determinize"),
    ("transforms", "hbfa_to_hrfa"),
    ("transforms", "mirror_within_lines"),
    ("transforms", "mirror_line_order"),
    ("langtools", "accepted_set"),
    ("langtools", "image_set"),
    ("langtools", "exact_equivalent_for_size"),
    ("langtools", "enumerate_pictures"),
    ("symmetry", "apply_op"),
    ("symmetry", "cell_map"),
    ("scan", "scan_lines"),
    ("hexgrid", "picture_from_cells"),
)

BUILDERS = ("transforms.hbfa_to_hrfa", "transforms.mirror_within_lines",
            "transforms.mirror_line_order")
EXACT = "langtools.exact_equivalent_for_size"
WITNESS = "langtools.witness_search"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts = {phase: {} for phase in PHASES}
        self.phase = "setup"
        self._stack: list[int] = []
        self._witness_from: float | None = None
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[0] == EXACT and self._witness_from is not None:
            self.spans.append([WITNESS, self._witness_from, span[2], index, self.phase])
            self._witness_from = None

    def abandon_open(self) -> None:
        """Close the spans a deadline interrupted, at the time of the call.

        The alarm can fire inside the tracer's own bookkeeping, so a span may
        be left open, or off the stack; the operation is over either way.
        """
        now = time.perf_counter()
        for span in reversed(self.spans):
            if span[2] is None:
                span[2] = now
        self._stack.clear()
        self._witness_from = None

    def count(self, key: str, amount) -> None:
        table = self.counts[self.phase]
        table[key] = table.get(key, 0) + amount

    def _observe(self, name, args, result) -> None:
        if name == "automata.run":
            self.count("automata.run_cells", sum(map(len, args[1].rows)))
        elif name in BUILDERS:
            self.count("transforms.states_built", len(result.states))
            self.count("transforms.rules_built",
                       len(result.value_rules) + len(result.border_rules))
        elif name == "langtools.accepted_set":
            self.count("langtools.members", len(result.members))
        elif name == "langtools.enumerate_pictures":
            # The exact oracle's witness search lasts from this call until
            # the oracle returns; `_close` records it as a child span.  The
            # innermost open span is this call's own, so look at its parent.
            if len(self._stack) > 1 and self.spans[self._stack[-2]][0] == EXACT:
                self._witness_from = time.perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result
            finally:
                tracer._close(index)

        return traced

    # --- patching ----------------------------------------------------------

    def install(self, hx) -> None:
        """Wrap every target in every hexscan module that bound it."""
        if self._patches:
            return
        modules = hx.all_modules()
        for mod_name, fn_name in TARGETS:
            original = getattr(getattr(hx, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patches.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in self._patches:
            setattr(mod, fn_name, original)
        self._patches = []

    # --- reporting ---------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one traced round.

        Set-up spans count once; round spans are summed over the traced
        rounds and divided by their number.
        """
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and name != WITNESS:
                child_ms[parent] += (end - start) * 1000
        calls = {phase: {} for phase in PHASES}
        total_ms = {phase: {} for phase in PHASES}
        self_ms = {phase: {} for phase in PHASES}
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            ms = (end - start) * 1000
            calls[phase][name] = calls[phase].get(name, 0) + 1
            total_ms[phase][name] = total_ms[phase].get(name, 0.0) + ms
            self_ms[phase][name] = self_ms[phase].get(name, 0.0) + ms - child_ms[i]

        def per_round(table, key):
            return table["setup"].get(key, 0) + table["round"].get(key, 0) / max(rounds, 1)

        run_ms = per_round(total_ms, "automata.run")
        cells = per_round(self.counts, "automata.run_cells")
        return {
            "cli.main_calls": per_round(calls, "cli.main"),
            "cli.main_self_ms": per_round(self_ms, "cli.main"),
            "automata.parse_automaton_ms": per_round(total_ms, "automata.parse_automaton"),
            "automata.serialize_automaton_ms": per_round(total_ms, "automata.serialize_automaton"),
            "automata.validate_calls": per_round(calls, "automata.validate"),
            "automata.validate_ms": per_round(total_ms, "automata.validate"),
            "automata.run_calls": per_round(calls, "automata.run"),
            "automata.run_ms": run_ms,
            "automata.run_cells_per_s": cells / (run_ms / 1000) if run_ms else 0.0,
            "automata.determinize_ms": per_round(total_ms, "automata.determinize"),
            "transforms.build_ms": sum(per_round(total_ms, b) for b in BUILDERS),
            "transforms.states_built": per_round(self.counts, "transforms.states_built"),
            "transforms.rules_built": per_round(self.counts, "transforms.rules_built"),
            "langtools.accepted_set_calls": per_round(calls, "langtools.accepted_set"),
            "langtools.accepted_set_ms": per_round(total_ms, "langtools.accepted_set"),
            "langtools.members": per_round(self.counts, "langtools.members"),
            "langtools.image_set_ms": per_round(total_ms, "langtools.image_set"),
            "langtools.exact_calls": per_round(calls, EXACT),
            "langtools.exact_ms": per_round(total_ms, EXACT),
            "langtools.witness_search_ms": per_round(total_ms, WITNESS),
            "symmetry.apply_op_calls": per_round(calls, "symmetry.apply_op"),
            "symmetry.apply_op_ms": per_round(total_ms, "symmetry.apply_op"),
            "symmetry.cell_map_ms": per_round(total_ms, "symmetry.cell_map"),
            "scan.scan_lines_calls": per_round(calls, "scan.scan_lines"),
            "scan.scan_lines_ms": per_round(total_ms, "scan.scan_lines"),
            "hexgrid.picture_from_cells_calls": per_round(calls, "hexgrid.picture_from_cells"),
            "hexgrid.picture_from_cells_ms": per_round(total_ms, "hexgrid.picture_from_cells"),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "phase"],
                       "spans": self.spans}, fh)
