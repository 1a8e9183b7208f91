"""In-memory spans around the program's layer functions.

The traced run measures each layer from outside the program: it swaps
a module's public function (or a class's method) for a thin wrapper
that opens a span, calls the original and closes the span. Nothing
inside ``src/`` changes. Spans carry name, start, end, parent and the
run id of the walk that caused them; they stay in memory until the run
ends and are then written once as Chrome trace-event JSON, which any
trace viewer (``chrome://tracing``, Perfetto) opens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    """One timed call. ``parent`` indexes the tracer's span list."""

    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent; the covered part is the
    union of their intervals clipped to the parent, so overlapping or
    overhanging children are never subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start_ns, span.start_ns),
             min(spans[c].end_ns, span.end_ns))
            for c in children.get(index, ()))
        covered, reach = 0, span.start_ns
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration_ns - covered)
    return result


def inclusive_times(spans: Sequence[Span]) -> dict[str, int]:
    """Per name, the summed duration of its outermost spans.

    A span nested (at any depth) inside a span of the same name is
    already inside that span's duration and is not added again.
    """
    totals: dict[str, int] = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] = totals.get(span.name, 0) + span.duration_ns
    return totals


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0,
                               stack[-1] if stack else None, self.run_id))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Write every span as Chrome trace-event JSON (complete events)."""
        selfs = self_times(self.spans)
        origin = min((s.start_ns for s in self.spans), default=0)
        pid = os.getpid()
        events = [{
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start_ns - origin) / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": pid,
            "tid": 0,
            "args": {"span": index, "parent": span.parent,
                     "run_id": span.run_id,
                     "self_us": selfs[index] / 1000.0},
        } for index, span in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": meta}))


# ----------------------------------------------------------------------
# wrapping the program's layers


#: (span name, module, attribute path) of every timed layer boundary.
#: A dotted attribute is a method; module-level functions are replaced
#: in every loaded module that imported them by name.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sources.load", "repro.sources.corpusdir", "CorpusDirSource.load"),
    ("history.versions", "repro.history.repository",
     "SchemaHistory.versions"),
    ("history.heartbeat", "repro.history.heartbeat", "schema_heartbeat"),
    ("metrics.profile", "repro.metrics.profile",
     "ProjectProfile.from_history"),
    ("labels.label", "repro.labels.quantization", "label_profile"),
    ("patterns.classify", "repro.patterns.classifier", "classify"),
    ("patterns.classify", "repro.patterns.classifier",
     "classify_with_tolerance"),
    ("analysis.pack", "repro.analysis.table", "RecordTable.from_records"),
    ("analysis.analyses", "repro.engine.study_plan", "run_analyses"),
    ("engine.records_map", "repro.engine.study_plan",
     "compute_records_from_source"),
    ("engine.refresh", "repro.engine.session", "EngineSession.refresh"),
    ("engine.cache_get", "repro.engine.cache", "ResultCache.get"),
    ("engine.cache_put", "repro.engine.cache", "ResultCache.put"),
    ("engine.pool_spawn", "multiprocessing.process", "BaseProcess.start"),
)

#: The report renderers the CLI prints, all timed as one layer.
RENDER_MODULE = "repro.report.render"
RENDER_PREFIX = "render_"


class LayerProbe:
    """Installs and removes the span wrappers and layer counters.

    Besides spans, it counts what the spans alone cannot say:
    ``schema.versions_built`` (builder snapshots) and
    ``sqlddl.parse_error_skips`` (``SchemaVersion.parse_issues`` summed
    over each history's versions the first time they are built).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self.counts: dict[str, int] = {}
        self._restore: list[Callable[[], None]] = []
        self._seen_histories: "weakref.WeakSet" = weakref.WeakSet()

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        self.counts = {"schema.versions_built": 0,
                       "sqlddl.parse_error_skips": 0}
        self._seen_histories = weakref.WeakSet()
        for name, module, attr in LAYER_TARGETS:
            self._wrap(module, attr, self._span_wrapper(name, attr))
        render = _import(RENDER_MODULE)
        for attr in sorted(vars(render) if render else ()):
            if attr.startswith(RENDER_PREFIX) \
                    and callable(getattr(render, attr)):
                self._wrap(RENDER_MODULE, attr,
                           self._span_wrapper("report.render", attr))
        for attr in ("SchemaBuilder.snapshot",
                     "SchemaBuilder.snapshot_reusing"):
            self._wrap("repro.schema.builder", attr,
                       self._count_wrapper("schema.versions_built"))

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, attr: str):
        tracer = self.tracer
        versions = attr == "SchemaHistory.versions"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if versions:
                    self._note_versions(args[0], result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, counter: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _note_versions(self, history, versions) -> None:
        if history in self._seen_histories:
            return
        self._seen_histories.add(history)
        self.counts["sqlddl.parse_error_skips"] += sum(
            v.parse_issues for v in versions)

    def _wrap(self, module_name: str, attr: str, make) -> None:
        module = _import(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name \
            else module
        if owner is None or member not in vars(owner):
            self.missing.append(f"{module_name}.{attr}")
            return
        raw = vars(owner)[member]
        if owner_name:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            setattr(owner, member, wrapped)
            self._restore.append(lambda: setattr(owner, member, raw))
            return
        wrapped = make(raw)
        for holder in _holders(raw):
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, wrapped)
                    self._restore.append(
                        functools.partial(setattr, holder, key, raw))


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _holders(fn) -> Iterable:
    """Every loaded ``repro`` module (plus the defining one) — the
    places a module-level function may have been imported into."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or id(module) in seen:
            continue
        if name == fn.__module__ or name == "repro" \
                or name.startswith("repro."):
            seen.add(id(module))
            yield module
