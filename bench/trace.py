"""Spans recorded from outside the program, and the wrappers that record them.

The engine takes its encoder, result cache and execution backend through
its constructor, so the ledger hands it timing versions of each.  Every
wrapper is a pass-through until the tracer is armed; spans stay in memory
and are written out once, when the workload ends.  A span's *self time*
is its duration minus the part its child spans cover, so nested layers
are never counted twice.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro.core  # noqa: F401 -- repro.cache imports repro.core, which imports repro.cache back: core must load first
from repro.cache import SemanticResultCache
from repro.exec import InlineBackend, ThreadBackend

_current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)
_INHERIT = object()


class Tracer:
    """An in-memory span list; ``enabled`` arms every wrapper at once."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def current(self) -> dict | None:
        return _current.get()

    @contextmanager
    def span(self, name: str, parent=_INHERIT, new_request: bool = False):
        """Record ``name`` around the block.  The parent defaults to the
        span open in this thread or task; work handed to another thread
        passes the submitting side's span as ``parent`` explicitly."""
        if not self.enabled:
            yield None
            return
        above = _current.get() if parent is _INHERIT else parent
        if new_request:
            request_id = next(self._requests)
        else:
            request_id = above["request_id"] if above else None
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": above["id"] if above else None,
            "request_id": request_id,
            "thread": threading.get_ident(),
        }
        token = _current.set(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)

    def self_time_table(self, root: str = "call") -> list[dict]:
        """One row per span name: count, self time, share of ``root`` time."""
        covered = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]].append((span["start"], span["end"]))
        rows: dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(span["name"], {"name": span["name"], "count": 0, "self_ms": 0.0})
            row["count"] += 1
            row["self_ms"] += (span["end"] - span["start"] - _union(covered[span["id"]], span)) * 1000.0
        root_ms = sum(durations_ms(self.spans, root)) or 1.0
        for row in rows.values():
            row["share_of_call"] = row["self_ms"] / root_ms
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [(s["end"] - s["start"]) * 1000.0 for s in spans if s["name"] == name]


def _union(intervals: list[tuple[float, float]], span: dict) -> float:
    """Length of ``span`` covered by ``intervals`` (children may overlap
    each other when they ran on parallel lanes)."""
    total, reach = 0.0, span["start"]
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            total += end - start
            reach = end
    return total


class TimingEncoder:
    """Duck-typed ``SentenceEncoder`` recording ``encoder.encode`` spans."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    @property
    def dim(self) -> int:
        return self.inner.dim

    def encode(self, texts):
        with self.tracer.span("encoder.encode"):
            return self.inner.encode(texts)

    def encode_one(self, text):
        return self.encode([text])[0]

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimingCache(SemanticResultCache):
    """The result cache with ``cache.lookup`` / ``cache.insert`` spans."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def lookup(self, *args, **kwargs):
        with self.tracer.span("cache.lookup"):
            return super().lookup(*args, **kwargs)

    def insert(self, *args, **kwargs):
        with self.tracer.span("cache.insert"):
            return super().insert(*args, **kwargs)


class _TimingBackend:
    """Mixin: one span per ``map``/``submit`` call and one per task, the
    task's parent being the span open where the work was handed over."""

    tracer: Tracer
    task_name = "exec.lane"
    #: Tasks start their own request instead of joining the submitter's
    #: (a serving window answers many requests, so it belongs to none).
    detached = False

    def map(self, fn, items, *, cap=None):
        with self.tracer.span("exec.map") as parent:

            def lane(item):
                with self.tracer.span(self.task_name, parent=parent):
                    return fn(item)

            return super().map(lane, items, cap=cap)

    def submit(self, fn, /, *args):
        parent = None if self.detached else self.tracer.current()

        def task():
            with self.tracer.span(self.task_name, parent=parent, new_request=parent is None):
                return fn(*args)

        with self.tracer.span("exec.submit"):
            return super().submit(task)


class TimingThreadBackend(_TimingBackend, ThreadBackend):
    def __init__(
        self, tracer: Tracer, task_name: str = "exec.lane", detached: bool = False, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.task_name = task_name
        self.detached = detached


class TimingInlineBackend(_TimingBackend, InlineBackend):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
