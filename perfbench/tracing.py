"""Per-layer timing taken from outside the program.

The traced run swaps each layer's public functions for thin wrappers that
record one span per call: layer name, function, start, end, parent span,
thread and the point or request id current at the time.  Spans stay in
memory and are written out when the run ends.  Nothing under ``src/``
changes: the wrappers are installed by assigning module and class
attributes, and :meth:`Tracer.uninstall` puts every original back.

A layer's self time is its span durations minus the durations of its child
spans.  A call that re-enters the layer it is already inside (the recursive
``ExpressionEvaluator.eval``, ``loop_nest_times`` pricing each distinct row
through ``loop_nest_time``) is counted as a call but opens no span and adds
no extra counts of its own: its time and work are the enclosing call's,
which belongs to the same layer anyway.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute path, count function name or None)
LAYER_SPECS = (
    ("frontend", "repro.frontend.parser", "parse_source", None),
    ("compiler", "repro.compiler.pipeline", "compile_program", None),
    ("stages", "repro.stages", "compile_cached", None),
    ("stages", "repro.stages", "price_cached", None),
    ("interpreter", "repro.interpreter.engine", "interpret", None),
    ("functional", "repro.functional.evaluator", "execute_forall", None),
    ("functional", "repro.functional.evaluator",
     "FunctionalEvaluator.exec_assignment", None),
    ("functional", "repro.functional.evaluator",
     "FunctionalEvaluator.exec_print", None),
    ("functional", "repro.functional.exprs", "ExpressionEvaluator.eval", None),
    ("simulator.node", "repro.simulator.node",
     "NodeCostModel.loop_nest_times", "rows"),
    ("simulator.node", "repro.simulator.node",
     "NodeCostModel.loop_nest_time", "one_row"),
    ("simulator.node", "repro.simulator.node",
     "NodeCostModel.scalar_statement_time", "one_row"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.compute_batch", "draws"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.communication_batch", "draws"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.compute_keyed", "one_draw"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.communication_keyed", "one_draw"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.compute", "one_draw"),
    ("simulator.noise", "repro.simulator.noise",
     "NoiseModel.communication", "one_draw"),
    ("simulator.network", "repro.simulator.network",
     "Network.drain_stage", "stage_messages"),
    ("simulator.network", "repro.simulator.network",
     "Network.drain_times", "spec_messages"),
    ("simulator.network", "repro.simulator.network",
     "Network.transfer", "spec_messages"),
    ("simulator.executor", "repro.simulator.runtime", "simulate", None),
    ("explore.campaign", "repro.explore.campaign", "evaluate_point", None),
    ("explore.store", "repro.explore.store", "ResultStore.add", "store_add"),
    ("explore.store", "repro.explore.store", "ResultStore.get", None),
    ("explore.store", "repro.explore.store", "ResultStore.get_point", None),
)

LAYERS = tuple(dict.fromkeys(spec[0] for spec in LAYER_SPECS))

#: Extra counts recorded at layer boundaries, by name.
COUNT_NAMES = ("simulator.node.rows", "simulator.noise.draws",
               "simulator.network.messages", "explore.store.appends",
               "explore.store.bytes")


def _count_rows(args, kwargs, result):
    return {"simulator.node.rows": len(result)}


def _count_one_row(args, kwargs, result):
    return {"simulator.node.rows": 1}


def _count_draws(args, kwargs, result):
    return {"simulator.noise.draws": len(result)}


def _count_one_draw(args, kwargs, result):
    return {"simulator.noise.draws": 1}


def _count_stage_messages(args, kwargs, result):
    src = args[2] if len(args) > 2 else kwargs["src"]
    return {"simulator.network.messages": len(src)}


def _count_spec_messages(args, kwargs, result):
    return {"simulator.network.messages": len(args[1])}


COUNTERS = {
    "rows": _count_rows,
    "one_row": _count_one_row,
    "draws": _count_draws,
    "one_draw": _count_one_draw,
    "stage_messages": _count_stage_messages,
    "spec_messages": _count_spec_messages,
}


class Tracer:
    """Holds the spans and counts of one traced run and the patch table."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        # re-entrant: the server launcher resets from a signal handler
        self._lock = threading.RLock()
        # (owner object, attribute name, original value)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Forget what set-up recorded; the patches stay in place."""
        with self._lock:
            self.spans = []
            self.calls = defaultdict(int)
            self.counts = defaultdict(int)

    def set_context(self, context: str) -> None:
        """Stamp later spans of this thread with a point or request id."""
        self._local.context = context

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                # the enclosing call of this layer counts the work
                with tracer._lock:
                    tracer.calls[layer] += 1
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            if name == "evaluate_point":
                tracer.set_context(args[0].label())
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.calls[layer] += 1
                    tracer.spans.append((span_id, layer, name, start, end,
                                         parent, threading.get_ident(),
                                         getattr(tracer._local, "context",
                                                 "")))
            if counter is not None:
                tracer._add_counts(counter(args, kwargs, result))
            return result

        return traced

    def _wrap_store_add(self, fn):
        """``ResultStore.add`` also records appends and bytes written."""
        traced = self._wrap("explore.store", "ResultStore.add", fn, None)
        tracer = self

        @functools.wraps(fn)
        def add(store, result, *args, **kwargs):
            before = os.path.getsize(store.path) \
                if os.path.exists(store.path) else 0
            appended = traced(store, result, *args, **kwargs)
            tracer._add_counts({
                "explore.store.appends": int(bool(appended)),
                "explore.store.bytes": os.path.getsize(store.path) - before,
            })
            return appended

        return add

    def _add_counts(self, counts: dict) -> None:
        with self._lock:
            for name, value in counts.items():
                self.counts[name] += value

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYER_SPECS` wherever it is bound.

        A module-level function is replaced in every loaded ``repro``
        module that imported it by name, so ``from .x import f`` call
        sites see the wrapper too; a method is replaced on its class.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path, count in LAYER_SPECS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                if count == "store_add":
                    wrapper = self._wrap_store_add(original)
                else:
                    wrapper = self._wrap(layer, path, original,
                                         COUNTERS.get(count))
                self._patch(owner, attr, original, wrapper)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(layer, path, original, COUNTERS.get(count))
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro"
                                          or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return the ones that did not
        come back (empty when the restore is complete)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, original in self._patched
                  if _raw_attr(owner, attr) is not original]
        self._patched = []
        return broken

    @property
    def patch_count(self) -> int:
        return len(self._patched)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, layer, function, start, end, parent,
        thread, context."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _raw_attr(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return vars(owner).get(attr)


def read_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def analyse(spans, calls: dict, counts: dict, wall_s: float,
            window: tuple[float, float] | None = None) -> dict:
    """Per-layer calls, self time and share of *wall_s*, plus the checks.

    *window* keeps only spans that start inside it (the serve workload's
    measured window, on the shared monotonic clock).  Returns the metric
    dict and a ``sum_check`` record: per thread, the summed self times must
    equal the time covered by that thread's root spans, and layer self
    times plus the unattributed time must add up to the wall time.
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if lo <= s[3] < hi]
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[5] in by_id:
            child_time[s[5]] += s[4] - s[3]
            children[s[5]].append(s)
    self_s: dict[str, float] = defaultdict(float)
    self_by_thread: dict[int, float] = defaultdict(float)
    roots_by_thread: dict[int, list] = defaultdict(list)
    for s in spans:
        own = (s[4] - s[3]) - child_time[s[0]]
        self_s[s[1]] += own
        self_by_thread[s[6]] += own
        if s[5] not in by_id:
            roots_by_thread[s[6]].append((s[3], s[4]))
    covered = 0.0
    worst_thread_gap = 0.0
    for thread, intervals in roots_by_thread.items():
        thread_cover = _union_length(intervals)
        covered += thread_cover
        worst_thread_gap = max(worst_thread_gap,
                               abs(thread_cover - self_by_thread[thread])
                               / max(thread_cover, 1e-12))
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / wall_s
    for name in COUNT_NAMES:
        metrics[name] = counts.get(name, 0)
    # a stage hit is a call that never reached the work it caches
    for stage, function, reached in (
            ("compile", "compile_cached", ("frontend", "compiler")),
            ("price", "price_cached", ("interpreter",))):
        lookups = [s for s in spans if s[2] == function]
        hits = sum(1 for s in lookups if not _reaches(s, children, reached))
        metrics[f"stages.{stage}_lookups"] = len(lookups)
        metrics[f"stages.{stage}_hit_ratio"] = \
            hits / len(lookups) if lookups else 0.0
    unattributed = wall_s - covered
    metrics["unattributed_share"] = unattributed / wall_s
    total = sum(self_s.values()) + unattributed
    error = abs(total - wall_s) / wall_s
    return {
        "metrics": metrics,
        "sum_check": {
            "wall_s": wall_s,
            "layer_self_plus_unattributed_s": total,
            "relative_error": error,
            "worst_thread_self_vs_cover": worst_thread_gap,
            "ok": error <= 0.01 and worst_thread_gap <= 0.01,
        },
    }


def _reaches(span, children, layers) -> bool:
    todo = list(children.get(span[0], ()))
    while todo:
        child = todo.pop()
        if child[1] in layers:
            return True
        todo.extend(children.get(child[0], ()))
    return False


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
