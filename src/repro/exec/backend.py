"""Execution backends: the library's one place to run parallel work.

Every parallel site in the library — the query-chunk fan-out in
``repro.core.base`` and the serving dispatch executor — submits to an
:class:`ExecutionBackend` instead of constructing its own pool (RL005
lints exactly that).  Two implementations share the surface:

* :class:`InlineBackend` — serial execution on the calling thread;
  zero concurrency, maximal determinism, the reference the equivalence
  tests compare everything against;
* :class:`ThreadBackend` — one persistent, lazily created thread pool
  reused across calls (the kernels release the GIL inside BLAS, so
  threads give real parallelism without pickling indexes), with
  per-call ``cap`` clamping so a caller's ``workers=`` bound holds
  without resizing the pool.

The library starts no worker processes: every search method scans in
the calling process.

Backends record ``exec.*`` metrics into the registry they are built
with: per-backend task counters, pool-size gauges and submit-to-start
queue timers.

:func:`resolve_backend` picks the default from the ``REPRO_EXECUTOR``
environment variable (``inline`` / ``thread``; unset means ``thread``),
which is how the CI matrix re-runs the concurrency suites per backend.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, TypeVar

from repro.errors import ConfigurationError, ExecutionError
from repro.obs import MetricsRegistry

__all__ = [
    "EXECUTOR_ENV",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "default_pool_size",
    "resolve_backend",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable naming the default backend for
#: :func:`resolve_backend` callers that don't choose one explicitly.
EXECUTOR_ENV = "REPRO_EXECUTOR"


def default_pool_size() -> int:
    """Pool width when the caller doesn't size one: the machine's
    cores, floored at 2 (so ``workers > 1`` means something everywhere)
    and capped at 32 (beyond which scatter width stops paying)."""
    return max(2, min(32, os.cpu_count() or 1))


class ExecutionBackend(ABC):
    """Where the library's parallel work runs.

    The contract every call site relies on:

    * :meth:`map` preserves input order and raises the first failure
      after all lanes settle; ``cap`` bounds this *call's* concurrency
      without resizing any pool;
    * :meth:`submit` returns a ``concurrent.futures.Future`` (serving
      wraps it into asyncio);
    * backends are reused across calls and closed exactly once by
      their owner (:meth:`close` is idempotent; they are context
      managers).
    """

    #: Short name; also the ``{backend}`` segment of ``exec.*`` metrics.
    name = "backend"

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    @abstractmethod
    def pool_size(self) -> int:
        """Concurrent task slots (0 for inline execution)."""

    @abstractmethod
    def submit(self, fn: Callable[..., R], /, *args: Any) -> "Future[R]":
        """Run ``fn(*args)`` asynchronously (inline backends resolve
        the future before returning)."""

    @abstractmethod
    def map(
        self, fn: Callable[[T], R], items: Iterable[T], *, cap: int | None = None
    ) -> list[R]:
        """``[fn(x) for x in items]`` with backend concurrency, order
        preserved; at most ``cap`` items in flight when given."""

    def close(self) -> None:
        """Release the pool; idempotent.  Using a closed backend
        raises :class:`~repro.errors.ExecutionError`."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- shared instrumentation --------------------------------------------

    def _record_task(self, queued_ms: float) -> None:
        self.metrics.counter(f"exec.{self.name}.tasks").inc()
        self.metrics.histogram(f"exec.{self.name}.queue_ms").observe(queued_ms)


class InlineBackend(ExecutionBackend):
    """Serial execution on the calling thread.

    No pool, no reordering, no cross-thread BLAS nondeterminism — the
    reference backend the property tests compare everything against,
    and the right choice for debugging and single-core machines.
    """

    name = "inline"

    @property
    def pool_size(self) -> int:
        return 0

    def submit(self, fn: Callable[..., R], /, *args: Any) -> "Future[R]":
        future: "Future[R]" = Future()
        future.set_running_or_notify_cancel()
        try:
            result = fn(*args)
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)
        self._record_task(0.0)
        return future

    def map(
        self, fn: Callable[[T], R], items: Iterable[T], *, cap: int | None = None
    ) -> list[R]:
        out: list[R] = []
        for item in items:
            self._record_task(0.0)
            out.append(fn(item))
        return out


class ThreadBackend(ExecutionBackend):
    """One persistent, sized, reused thread pool.

    Replaces the historical fresh-``ThreadPoolExecutor``-per-call
    churn: the pool is created lazily on first real fan-out and lives
    until :meth:`close`.  A caller's ``workers=`` bound is honored by
    *lanes*, not pool resizing — :meth:`map` runs at most ``min(cap,
    pool_size, len(items))`` concurrent lanes, lane ``i`` serially
    draining ``items[i::lanes]``, so concurrency never exceeds the cap
    even when the pool is wider.
    """

    name = "thread"

    def __init__(
        self, max_workers: int | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        super().__init__(metrics)
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self._max_workers = max_workers if max_workers is not None else default_pool_size()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    @property
    def pool_size(self) -> int:
        return self._max_workers

    @property
    def pool(self) -> ThreadPoolExecutor | None:
        """The live pool (``None`` until first use) — exposed so tests
        can assert its identity is stable across repeated calls."""
        return self._pool

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise ExecutionError(f"{self.name} backend used after close()")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=f"repro-exec-{self.name}",
                )
                self.metrics.gauge(f"exec.{self.name}.pool_size").set(
                    float(self._max_workers)
                )
            return self._pool

    def submit(self, fn: Callable[..., R], /, *args: Any) -> "Future[R]":
        pool = self._ensure_pool()
        submitted = time.perf_counter()

        def run() -> R:
            self._record_task((time.perf_counter() - submitted) * 1000.0)
            return fn(*args)

        return pool.submit(run)

    def map(
        self, fn: Callable[[T], R], items: Iterable[T], *, cap: int | None = None
    ) -> list[R]:
        if self._closed:
            raise ExecutionError(f"{self.name} backend used after close()")
        work = list(items)
        lanes = min(len(work), self._max_workers)
        if cap is not None:
            lanes = min(lanes, max(1, cap))
        if lanes < 2:
            # Degenerate fan-out: skip the pool round-trip entirely.
            out: list[R] = []
            for item in work:
                self._record_task(0.0)
                out.append(fn(item))
            return out
        pool = self._ensure_pool()
        submitted = time.perf_counter()
        results: list[Any] = [None] * len(work)

        def lane(first: int) -> None:
            for index in range(first, len(work), lanes):
                self._record_task((time.perf_counter() - submitted) * 1000.0)
                results[index] = fn(work[index])

        futures = [pool.submit(lane, first) for first in range(lanes)]
        error: BaseException | None = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return list(results)

    def close(self) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def resolve_backend(
    spec: "str | ExecutionBackend | None" = None,
    *,
    max_workers: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> ExecutionBackend:
    """Build (or pass through) an execution backend.

    ``spec`` is a backend instance (returned untouched — the caller
    does not own it and must not close it), a backend name (``inline``
    / ``thread``), or ``None`` to consult the ``REPRO_EXECUTOR``
    environment variable and default to ``thread``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    chosen = spec if spec is not None else os.environ.get(EXECUTOR_ENV, "")
    chosen = chosen.strip().lower() or "thread"
    if chosen == "inline":
        return InlineBackend(metrics)
    if chosen == "thread":
        return ThreadBackend(max_workers=max_workers, metrics=metrics)
    raise ConfigurationError(
        f"unknown execution backend {chosen!r}; expected 'inline' or 'thread'"
    )
