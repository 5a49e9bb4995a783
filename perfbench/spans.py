"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public functions each layer exposes with timing
wrappers, at the module (or class) where the pipeline looks them up - e.g.
``repro.core.decision.encode_most_general`` - and returns an undo callable.
Nothing under ``src/`` changes.  While :attr:`Tracer.recording` is false a
wrapper calls straight through, so checks made between requests are never
attributed to a layer.

A span covers one call; an iterator returned by an engine ``iterate`` is
timed through consumption (each ``next`` is an interval of the same span).
A layer's *self time* is its spans' time minus the time of the spans nested
directly inside them, so self times add up to the time of the outermost
spans.  Garbage collection (``gc.callbacks``) is its own layer,
``python.gc``, nested inside whatever it interrupted.

Spans stay in memory as ``[request, layer, parent layer, start ns, busy ns,
self ns]`` records and are written out by :meth:`Tracer.write` at the end.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: ``(module, attribute path, layer)`` for every wrapped public function.
#: The module is where the pipeline resolves the name at call time.
FUNCTION_SITES: tuple[tuple[str, str, str], ...] = (
    ("repro.session.session", "Session.submit", "session"),
    ("repro.session.session", "Session.decide", "session"),
    ("repro.session.session", "Session.evaluate", "session"),
    ("repro.core.decision", "decide_bag_containment", "core.decide"),
    ("repro.core.decision", "encode_most_general", "core.encode"),
    ("repro.core.decision", "encode_many", "core.encode"),
    ("repro.core.decision", "counterexample_from_witness", "core.certificate"),
    ("repro.core.decision", "uniform_counterexample", "core.certificate"),
    ("repro.core.certificates", "ContainmentCounterexample.verify", "core.certificate"),
    ("repro.core.decision", "decide_mpi", "diophantine"),
    ("repro.core.decision", "decide_mpi_via_lp", "diophantine"),
    ("repro.diophantine.solver", "solve_strict_system", "linalg.fm"),
    ("repro.diophantine.solver", "lp_feasibility", "linalg.lp"),
    ("repro.engine.batch", "ContainmentMappingBatcher.mappings", "engine"),
    ("repro.evaluation.bag_evaluation", "evaluate_bag", "evaluation"),
    ("repro.evaluation.bag_evaluation", "bag_multiplicity", "evaluation"),
    ("repro.core.certificates", "bag_multiplicity", "evaluation"),
    ("repro.engine.persist", "PersistentCache.load", "persist.load"),
    ("repro.engine.persist", "PersistentCache.store", "persist.store"),
    ("repro.cli", "main", "cli.main"),
    ("repro.cli", "parse_cq", "queries.parse"),
)

#: Backend methods timed as the ``engine`` layer, on every backend class.
ENGINE_METHODS = ("iterate", "count", "exists")

class Tracer:
    """An in-memory span recorder with a frame stack (one thread)."""

    def __init__(self) -> None:
        self.recording = False
        #: The index of the request being traced; the runner sets it.
        self.request = 0
        self.records: list[list[Any]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.lp_fallbacks = 0
        # Frames are [record, start ns, child ns].
        self._stack: list[list[Any]] = []

    def open(self, layer: str) -> list[Any]:
        parent = self._stack[-1][0][1] if self._stack else None
        record = [self.request, layer, parent, time.perf_counter_ns(), 0, 0]
        self.records.append(record)
        if parent != layer:
            self.outer_calls[layer] += 1
        return record

    def enter(self, record: list[Any]) -> None:
        self._stack.append([record, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        record, started, child = self._stack.pop()
        busy = time.perf_counter_ns() - started
        record[4] += busy
        record[5] += busy - child
        self.self_ns[record[1]] += busy - child
        if self._stack:
            self._stack[-1][2] += busy

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.recording:
            return
        if phase == "start":
            self.enter(self.open("python.gc"))
        elif self._stack and self._stack[-1][0][1] == "python.gc":
            self.exit()

    def write(self, path: Path) -> None:
        """Write every span record as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("request", "layer", "parent", "start_ns", "busy_ns", "self_ns")
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class _TimedIterator:
    """Times an engine iterator through consumption, one interval per ``next``."""

    __slots__ = ("_inner", "_record", "_tracer")

    def __init__(self, inner, record: list[Any], tracer: Tracer) -> None:
        self._inner = inner
        self._record = record
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        if not self._tracer.recording:
            return next(self._inner)
        self._tracer.enter(self._record)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit()


def _wrap(function: Callable, layer: str, tracer: Tracer, timed_iterator: bool = False):
    counts_fallbacks = layer == "diophantine"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return function(*args, **kwargs)
        record = tracer.open(layer)
        tracer.enter(record)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if counts_fallbacks and getattr(result, "method", None) == "lp-fallback":
            tracer.lp_fallbacks += 1
        if timed_iterator:
            return _TimedIterator(iter(result), record, tracer)
        return result

    return wrapper


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public functions; return a callable that undoes it."""
    from repro.engine import backends

    originals: list[tuple[Any, str, Any]] = []

    def replace(owner: Any, attribute: str, layer: str, timed_iterator: bool = False) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(original, layer, tracer, timed_iterator))

    for module_name, path, layer in FUNCTION_SITES:
        owner, attribute = _resolve(module_name, path)
        replace(owner, attribute, layer)
    backend_classes = [backends.Backend, *_subclasses(backends.Backend)]
    for cls in backend_classes:
        for method in ENGINE_METHODS:
            if method in cls.__dict__:
                replace(cls, method, "engine", timed_iterator=(method == "iterate"))
    gc.callbacks.append(tracer._on_gc)

    def undo() -> None:
        gc.callbacks.remove(tracer._on_gc)
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
