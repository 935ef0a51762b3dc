"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces each traced ``matchcolor`` function with a
wrapper in every loaded ``matchcolor`` module that binds it (``chi_star``,
for instance, is bound in ``fractional``, ``colorer``, ``listcolor`` and the
package itself), so calls through any import path are recorded.
``Tracer.uninstall()`` puts every original binding back.

A span records its name, the module whose binding was called (``via``),
start and end (``time.perf_counter``), its parent span and the operation it
belongs to, plus counters read from the return value.  Spans stay in memory
and are written as JSONL by ``Tracer.write_jsonl``.  The run is single
threaded, so open spans form a stack and a span's children never overlap:
self time is the span's duration minus the summed durations of its direct
children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from typing import Any, Callable

# (defining module, function).  The span name is "<module>.<function>" after
# the defining module, whatever module the caller reached the function through.
TRACED: tuple[tuple[str, str], ...] = (
    ("graphs", "load_multigraph"),
    ("graphs", "induced_subgraph"),
    ("graphs", "restrict_edges"),
    ("graphs", "ball_subgraph"),
    ("fractional", "chi_star"),
    ("fractional", "find_violated_matching_constraint"),
    ("hardcore", "calibrate_activities"),
    ("hardcore", "exact_marginals"),
    ("hardcore", "log_partition_function"),
    ("hardcore", "sample_matching_recursive"),
    ("hardcore", "sample_matching"),
    ("hardcore", "estimate_marginals"),
    ("localsearch", "run_with_selector"),
    ("colorer", "color_multigraph"),
    ("colorer", "plan_round"),
    ("colorer", "initial_state"),
    ("colorer", "run_round"),
    ("colorer", "resample_matching"),
    ("colorer", "greedy_edge_coloring"),
)

OP_SPAN = "bench.op"
SELECT_SPAN = "localsearch.select"
REPAIR_SPAN = "localsearch.repair"

# Functions whose outputs the correctness gate inspects after each traced
# operation: every draw must be a matching, every calibration converged.
DRAWS = ("hardcore.sample_matching_recursive", "hardcore.sample_matching")
CALIBRATION = "hardcore.calibrate_activities"


class Tracer:
    """Collects spans for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.via: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: dict[int, dict[str, Any]] = {}
        # (span name, graph, result) for the correctness gate,
        # drained by ``take_outputs`` after each operation.
        self.outputs: list[tuple[str, Any, Any]] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, via: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.via.append(via)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, idx: int, key: str, value: Any) -> None:
        self.counters.setdefault(idx, {})[key] = value

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation under a root span."""
        self._op_id = op_id
        idx = self._open(OP_SPAN, "bench")
        try:
            return fn()
        finally:
            self._close(idx)

    def take_outputs(self) -> list[tuple[str, Any, Any]]:
        out, self.outputs = self.outputs, []
        return out

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, via: str) -> Callable:
        if name == "localsearch.run_with_selector":
            return self._wrap_search(fn, via)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == CALIBRATION:
                self.count(idx, "iterations", result.iterations)
                self.outputs.append((name, args[0], result))
            elif name in DRAWS:
                # Keep the model's graph, not the model and its memo.
                self.outputs.append((name, args[0].graph, result))
            return result

        return traced

    def _wrap_search(self, fn: Callable, via: str) -> Callable:
        """run_with_selector, with its selector and each repair split out."""
        tracer = self

        def wrap_flaw(flaw):
            if flaw is None:
                return None
            address = flaw.address

            def repair(state, rng):
                idx = tracer._open(REPAIR_SPAN, via)
                tracer.count(idx, "kind", flaw.kind)
                try:
                    return address(state, rng)
                finally:
                    tracer._close(idx)

            return dataclasses.replace(flaw, address=repair)

        @functools.wraps(fn)
        def traced(initial, select, *args, **kwargs):
            def traced_select(state):
                idx = tracer._open(SELECT_SPAN, via)
                try:
                    flaw = select(state)
                finally:
                    tracer._close(idx)
                return wrap_flaw(flaw)

            idx = tracer._open("localsearch.run_with_selector", via)
            try:
                result = fn(initial, traced_select, *args, **kwargs)
            except Exception as err:
                trace = getattr(err, "trace", None)
                tracer.count(idx, "failed", 1)
                tracer.count(idx, "steps", trace.steps if trace is not None else 0)
                raise
            finally:
                tracer._close(idx)
            tracer.count(idx, "failed", 0)
            tracer.count(idx, "steps", result.steps)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded matchcolor modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "matchcolor" or name.startswith("matchcolor."))
        }
        for defining, func in TRACED:
            original = getattr(modules[f"matchcolor.{defining}"], func)
            span_name = f"{defining}.{func}"
            for mod_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        via = mod_name.rpartition(".")[2]
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, self._wrap(original, span_name, via))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for idx, name in enumerate(self.names):
                rec = {
                    "id": idx,
                    "name": name,
                    "via": self.via[idx],
                    "op": self.op[idx],
                    "parent": self.parent[idx],
                    "start": self.start[idx],
                    "end": self.end[idx],
                }
                rec.update(self.counters.get(idx, {}))
                handle.write(json.dumps(rec) + "\n")
