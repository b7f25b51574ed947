"""Execution backends: the library's one place to run parallel work.

Every parallel site in the library — the query-chunk fan-out in
``repro.core.base`` and the serving dispatch executor — submits to an
:class:`ExecutionBackend` instead of constructing its own pool (RL005
lints exactly that).  Three implementations share the surface:

* :class:`InlineBackend` — serial execution on the calling thread;
  zero concurrency, maximal determinism, the reference the equivalence
  tests compare everything against;
* :class:`ThreadBackend` — one persistent, lazily created thread pool
  reused across calls (the kernels release the GIL inside BLAS, so
  threads give real parallelism without pickling indexes), with
  per-call ``cap`` clamping so a caller's ``workers=`` bound holds
  without resizing the pool;
* :class:`ProcessBackend` — worker processes holding resident scan
  state (scan matrices, shared or pickled) behind per-worker command
  pipes, for scans that escape the GIL entirely.  Generic tasks —
  closures over live in-process indexes — cannot cross a process
  boundary, so they run on the inherited thread pool; what makes the
  backend "process" is the resident-shard surface
  (:meth:`~ExecutionBackend.publish_shard` /
  :meth:`~ExecutionBackend.scan_shards`).  No search method publishes
  to it: ExS scans its one matrix in the calling process.

Backends record ``exec.*`` metrics into the registry they are built
with: per-backend task counters, pool-size gauges, submit-to-start
queue timers and resident-shard scan counts.

:func:`resolve_backend` picks the default from the ``REPRO_EXECUTOR``
environment variable (``inline`` / ``thread`` / ``process``; unset
means ``thread``), which is how the CI matrix re-runs the concurrency
suites over the process backend.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, TypeVar

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.exec.shardscan import ShardScanSpec, shard_worker_main
from repro.obs import MetricsRegistry

__all__ = [
    "EXECUTOR_ENV",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
    "default_pool_size",
    "resolve_backend",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable naming the default backend for
#: :func:`resolve_backend` callers that don't choose one explicitly.
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: One scan request: (published key, expected generation, query block).
ScanRequest = tuple[str, int, np.ndarray]


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
      managers);
    * the resident-shard surface (:meth:`publish_shard` /
      :meth:`drop_shard` / :meth:`scan_shards`) exists only on
      backends with :attr:`supports_shard_scans` — callers must check
      before publishing.
    """

    #: Short name; also the ``{backend}`` segment of ``exec.*`` metrics.
    name = "backend"
    #: Whether publish/drop/scan_shards route to worker processes.
    supports_shard_scans = False

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
        """Release pools/workers; idempotent.  Using a closed backend
        raises :class:`~repro.errors.ExecutionError`."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- resident shard state (process backends only) ----------------------

    def publish_shard(self, key: str, spec: ShardScanSpec) -> None:
        """Install (or refresh) ``key``'s scan state in its worker."""
        raise ExecutionError(f"{self.name} backend does not host resident shard state")

    def drop_shard(self, key: str) -> None:
        """Release ``key``'s resident scan state, if any."""
        raise ExecutionError(f"{self.name} backend does not host resident shard state")

    def scan_shards(self, requests: Sequence[ScanRequest]) -> list[np.ndarray]:
        """Scan many resident shards, one ``(R, Q)`` score matrix per
        request, in request order."""
        raise ExecutionError(f"{self.name} backend does not host resident shard state")

    # -- shared instrumentation --------------------------------------------

    def _record_task(self, queued_ms: float) -> None:
        self.metrics.counter(f"exec.{self.name}.tasks").inc()
        self.metrics.histogram(f"exec.{self.name}.queue_ms").observe(queued_ms)


class InlineBackend(ExecutionBackend):
    """Serial execution on the calling thread.

    No pool, no reordering, no cross-thread BLAS nondeterminism — the
    reference backend the property tests compare the others against,
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


class _ShardWorker:
    """One daemon worker process plus its parent-side command pipe.

    The lock serializes request/reply pairs on the pipe — concurrency
    across shards comes from fanning out over *workers*, never from
    interleaving frames on one pipe.
    """

    def __init__(self, ctx: multiprocessing.context.BaseContext, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.lock = threading.Lock()
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn,),
            name=f"repro-exec-shard{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def request(self, message: tuple[Any, ...]) -> Any:
        with self.lock:
            try:
                self.conn.send(message)
                status, payload = self.conn.recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise ExecutionError(
                    f"shard worker {self.process.name} is gone ({exc!r})"
                ) from exc
        if status == "err":
            raise ExecutionError(f"shard worker {self.process.name}: {payload}")
        return payload

    def stop(self) -> None:
        with self.lock:
            try:
                self.conn.send(("stop",))
                self.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            try:
                self.conn.close()
            except OSError:
                pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5.0)


def _stop_workers(workers: "list[_ShardWorker]") -> None:
    for worker in list(workers):
        worker.stop()
    workers.clear()


class ProcessBackend(ThreadBackend):
    """Worker processes holding resident shard state in shared memory.

    Generic tasks — closures over live in-process indexes — cannot
    cross a process boundary, so :meth:`map` / :meth:`submit` run on
    the inherited thread pool.  What escapes the GIL is the
    resident-shard surface: a caller publishes a scan matrix (a
    :class:`~repro.linalg.SharedBuffer` segment, a mapped snapshot file
    or a pickled array) to a worker under a key and a generation, and a
    scan then ships only the encoded query block — the scan kernel runs
    in the worker, and one ``(R, Q)`` score matrix comes back per key.

    Workers are daemonic, spawned lazily on first publish and assigned
    shards round-robin; a ``weakref.finalize`` stops them even when an
    owner forgets to :meth:`close`.
    """

    name = "process"
    supports_shard_scans = True

    def __init__(
        self,
        max_workers: int | None = None,
        metrics: MetricsRegistry | None = None,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(max_workers=max_workers, metrics=metrics)
        if mp_context is None:
            # Fork shares the parent's pages copy-on-write and skips
            # re-import, so publishing is cheap; spawn is the fallback
            # where fork does not exist.
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self._workers: "list[_ShardWorker]" = []
        self._assignment: dict[str, int] = {}
        self._workers_lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _stop_workers, self._workers)

    def _worker_for(self, key: str) -> _ShardWorker:
        with self._workers_lock:
            if self._closed:
                raise ExecutionError(f"{self.name} backend used after close()")
            index = self._assignment.get(key)
            if index is None:
                if len(self._workers) < self._max_workers:
                    self._workers.append(_ShardWorker(self._ctx, len(self._workers)))
                    index = len(self._workers) - 1
                else:
                    index = len(self._assignment) % len(self._workers)
                self._assignment[key] = index
            return self._workers[index]

    def publish_shard(self, key: str, spec: ShardScanSpec) -> None:
        self._worker_for(key).request(("publish", key, spec))

    def drop_shard(self, key: str) -> None:
        with self._workers_lock:
            index = self._assignment.get(key)
            worker = self._workers[index] if index is not None else None
        if worker is not None:
            worker.request(("drop", key))

    def scan_shards(self, requests: Sequence[ScanRequest]) -> list[np.ndarray]:
        grouped: dict[int, list[int]] = {}
        for position, (key, _, _) in enumerate(requests):
            with self._workers_lock:
                index = self._assignment.get(key)
            if index is None:
                raise ExecutionError(f"shard {key!r} was never published to this backend")
            grouped.setdefault(index, []).append(position)

        def drain(group: tuple[int, list[int]]) -> list[np.ndarray]:
            worker_index, positions = group
            worker = self._workers[worker_index]
            scores: list[np.ndarray] = []
            for position in positions:
                key, generation, block = requests[position]
                scores.append(worker.request(("scan", key, generation, block)))
                self.metrics.counter(f"exec.{self.name}.shard_scans").inc()
            return scores

        # Pipe I/O fans out over the thread pool: one lane per worker,
        # each worker's requests serialized by its pipe lock anyway.
        groups = list(grouped.items())
        parts = self.map(drain, groups)
        results: list[np.ndarray | None] = [None] * len(requests)
        for (_, positions), part in zip(groups, parts):
            for position, scores_matrix in zip(positions, part):
                results[position] = scores_matrix
        return [matrix for matrix in results if matrix is not None]

    def close(self) -> None:
        with self._workers_lock:
            workers = list(self._workers)
            self._workers.clear()
            self._assignment.clear()
        for worker in workers:
            worker.stop()
        super().close()


def resolve_backend(
    spec: "str | ExecutionBackend | None" = None,
    *,
    max_workers: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> ExecutionBackend:
    """Build (or pass through) an execution backend.

    ``spec`` is a backend instance (returned untouched — the caller
    does not own it and must not close it), a backend name (``inline``
    / ``thread`` / ``process``), or ``None`` to consult the
    ``REPRO_EXECUTOR`` environment variable and default to ``thread``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    chosen = spec if spec is not None else os.environ.get(EXECUTOR_ENV, "")
    chosen = chosen.strip().lower() or "thread"
    if chosen == "inline":
        return InlineBackend(metrics)
    if chosen == "thread":
        return ThreadBackend(max_workers=max_workers, metrics=metrics)
    if chosen == "process":
        return ProcessBackend(max_workers=max_workers, metrics=metrics)
    raise ConfigurationError(
        f"unknown execution backend {chosen!r}; expected 'inline', 'thread' or 'process'"
    )
