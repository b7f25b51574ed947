"""The asyncio serving front end around a :class:`DiscoveryEngine`.

``ServingEngine`` turns the engine's batch kernels into an always-on
service for concurrent single-query traffic:

* ``await serving.submit(query, method=..., k=...)`` admits one request
  (admission control: tenant token buckets, a bounded queue with
  retry-after backpressure, optional per-request deadlines) and parks
  it in a micro-batching window;
* the :class:`~repro.serving.batcher.MicroBatcher` coalesces compatible
  requests — same ``(method, k, h)`` — and hands full or aged-out
  windows to a small thread pool, where each window runs as ONE
  ``engine.search_batch`` call under the engine's reader lock;
* results fan back out to the per-request futures on the event loop,
  so every caller sees exactly the ranking a direct ``engine.search``
  would have produced, at a fraction of the per-query cost.

Threading model: all serving state (windows, timers, accounting) is
confined to the event-loop thread.  Only the engine call crosses
threads, and it synchronizes exactly like every other engine reader —
through the lifecycle RWLock — so serving dispatch and writer deltas
compose without any new locking.
:meth:`drain` stops intake, flushes every window, and awaits in-flight
dispatches; a delta landing mid-drain simply serializes with those
reads (writer preference bounds its wait by the in-flight windows).

Everything reports into the engine's existing metrics registry under
the ``serving.*`` vocabulary: queue-depth gauge, batch-fill histogram,
shed/reject counters and queue/dispatch/end-to-end latency stages.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Any

from repro.cache import CacheSignature
from repro.core.results import BatchResult, SearchResult
from repro.errors import ConfigurationError, DeadlineExceeded, QueueFull, RateLimited, ServingClosed
from repro.exec import ExecutionBackend, resolve_backend
from repro.serving.admission import AdmissionController
from repro.serving.batcher import BatchKey, MicroBatcher, PendingRequest
from repro.serving.tenancy import DEFAULT_TENANT, RateLimit

if TYPE_CHECKING:  # circular at runtime: engine.serving() builds us
    from repro.core.engine import DiscoveryEngine

__all__ = ["ServingEngine"]


class ServingEngine:
    """Micro-batched, admission-controlled serving over one engine.

    Parameters
    ----------
    engine:
        The indexed :class:`~repro.core.engine.DiscoveryEngine` to
        serve.  Its metrics registry is shared, so one snapshot shows
        the whole request path.
    window_ms:
        Maximum age of a batching window: the latency a lone request
        pays for the chance to coalesce (time trigger).
    max_batch:
        Window capacity: a full window dispatches immediately (size
        trigger), so saturated keys never wait out the window.
    max_queue:
        Bound on admitted-but-unanswered requests; beyond it
        ``submit`` raises :class:`~repro.errors.QueueFull` with a
        retry-after hint instead of growing an unbounded backlog.
    dispatch_workers:
        Threads running engine calls; >1 lets windows for different
        keys overlap (each window is still one engine call).
    executor:
        The :class:`~repro.exec.ExecutionBackend` running window
        dispatches.  ``None`` (default) lazily resolves a dedicated
        thread backend — dedicated on purpose: its pool is sized by
        ``dispatch_workers``, and the engine's own backend may be
        ``inline``, which would run every scan on the event-loop
        thread.  Pass a backend to override; the caller then owns its
        lifecycle (:meth:`drain` only closes a backend serving created
        itself).
    default_limit / tenant_limits:
        Optional per-tenant token buckets
        (:class:`~repro.serving.tenancy.RateLimit`); ``None`` default
        admits unknown tenants unconditionally.

    Use as an async context manager (drains on exit)::

        async with engine.serving(window_ms=3.0) as serving:
            results = await asyncio.gather(
                *(serving.submit(q, method="exs", k=10) for q in queries)
            )
    """

    def __init__(
        self,
        engine: "DiscoveryEngine",
        window_ms: float = 3.0,
        max_batch: int = 32,
        max_queue: int = 256,
        dispatch_workers: int = 2,
        executor: ExecutionBackend | None = None,
        default_limit: RateLimit | None = None,
        tenant_limits: "dict[str, RateLimit] | None" = None,
    ) -> None:
        if dispatch_workers < 1:
            raise ConfigurationError("dispatch_workers must be >= 1")
        self.engine = engine
        self.metrics = engine.metrics
        self.dispatch_workers = dispatch_workers
        self.admission = AdmissionController(
            max_queue=max_queue,
            window_ms=window_ms,
            max_batch=max_batch,
            default_limit=default_limit,
            tenant_limits=tenant_limits,
        )
        self.batcher = MicroBatcher(window_ms, max_batch, self._dispatch_window)
        self._clock = time.monotonic
        self._state = "idle"  # idle -> running -> draining -> closed
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ExecutionBackend | None = executor
        self._owns_executor = executor is None
        self._inflight: "set[asyncio.Future[BatchResult]]" = set()
        self._outstanding = 0
        self._closed_event: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet answered (queued or dispatched)."""
        return self._outstanding

    def _ensure_running(self) -> None:
        loop = asyncio.get_running_loop()
        if self._state == "idle":
            self._loop = loop
            if self._executor is None:
                # Dedicated, not the engine's: this pool is sized by
                # dispatch_workers, and the engine's backend may be
                # inline, which would scan on the event-loop thread.
                self._executor = resolve_backend(
                    "thread", max_workers=self.dispatch_workers, metrics=self.metrics
                )
            self._closed_event = asyncio.Event()
            self._state = "running"
        elif self._loop is not loop:
            raise ConfigurationError(
                "ServingEngine is bound to the event loop that first used it; "
                "create one ServingEngine per loop"
            )
        if self._state != "running":
            raise ServingClosed("serving is draining/closed; no new requests admitted")

    async def __aenter__(self) -> "ServingEngine":
        self._ensure_running()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Stop intake, flush every window, await in-flight dispatches.

        Safe against concurrent writers: dispatched windows hold the
        engine's reader lock only inside the executor threads, so a
        delta landing mid-drain serializes with them through the
        ordinary RWLock — nothing here blocks the event loop on that
        lock, hence no deadlock, and every admitted request still gets
        its answer (or its deadline error).
        """
        if self._state in ("idle", "closed"):
            self._state = "closed"
            return
        if self._state == "draining":
            assert self._closed_event is not None
            await self._closed_event.wait()
            return
        self._state = "draining"
        self.batcher.flush_all()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._executor is not None and self._owns_executor:
            self._executor.close()
        self._state = "closed"
        assert self._closed_event is not None
        self._closed_event.set()

    # -- the request path --------------------------------------------------

    async def submit(
        self,
        query: str,
        method: str = "cts",
        k: int = 10,
        h: float = 0.0,
        tenant: str = DEFAULT_TENANT,
        timeout_ms: float | None = None,
    ) -> SearchResult:
        """Admit one query and await its batched result.

        Raises :class:`~repro.errors.RateLimited` /
        :class:`~repro.errors.QueueFull` at admission,
        :class:`~repro.errors.DeadlineExceeded` when ``timeout_ms``
        elapses before the window dispatches, and
        :class:`~repro.errors.ServingClosed` after :meth:`drain`.

        Admission order: deadline first (a dead-on-arrival request is
        shed before it can burn a token or a queue slot), then the
        tenant's token bucket, then the engine's semantic cache — a hit
        resolves right here, rate-limited but without ever taking a
        queue slot or a window seat — and only a genuine miss pays the
        queue-bound check and parks in a batching window.
        """
        self._ensure_running()
        now = self._clock()
        deadline = self.admission.deadline(timeout_ms, now)
        if deadline is not None and now >= deadline:
            self.metrics.counter("serving.shed").inc()
            self.metrics.gauge("serving.queue_depth").set(self._outstanding)
            raise DeadlineExceeded(
                "request was dead on arrival: its deadline expired before admission"
            )
        try:
            self.admission.charge_tenant(tenant, now)
        except RateLimited:
            self.metrics.counter("serving.throttled").inc()
            self.metrics.counter(f"serving.tenant.{tenant}.throttled").inc()
            raise
        # repro-lint: disable=RL008 -- deliberate: the lock-free cache probe is one bounded GEMM over at most cache-capacity query vectors (micro-seconds), cheaper on-loop than an executor round-trip
        cached = self._cached_result(query, method=method, k=k, h=h)
        if cached is not None:
            self.metrics.counter("serving.submitted").inc()
            self.metrics.counter("serving.cache_hits").inc()
            self.metrics.counter("serving.completed").inc()
            self.metrics.histogram("serving.e2e_ms").observe(
                (self._clock() - now) * 1000.0
            )
            return cached
        try:
            self.admission.check_queue(self._outstanding)
        except QueueFull:
            self.metrics.counter("serving.rejected").inc()
            raise
        assert self._loop is not None
        request = PendingRequest(
            query=query,
            key=BatchKey(method=method, k=k, h=h),
            tenant=tenant,
            future=self._loop.create_future(),
            enqueued=now,
            deadline=deadline,
        )
        self._outstanding += 1
        self.metrics.counter("serving.submitted").inc()
        self.metrics.gauge("serving.queue_depth").set(self._outstanding)
        self.batcher.add(request)
        return await request.future

    def _cached_result(
        self, query: str, method: str, k: int, h: float
    ) -> SearchResult | None:
        """Probe the engine's semantic cache from the event-loop thread.

        Lock-free by design: the cache validates every candidate against
        the generation the writer last published from under its write
        lock, so this probe never blocks the loop on the lifecycle lock.
        Racing a writer it serves either the pre-delta answer (the
        request overlaps the delta — linearizable) or nothing, in which
        case the request takes the ordinary locked window path.
        """
        cache = self.engine.query_cache
        if cache is None:
            return None
        hit = cache.lookup(
            CacheSignature(method=method, k=k, h=h),
            query,
            encode=lambda: self.engine._query_vector(query),
        )
        return None if hit is None else hit.as_result(query, method)

    def _dispatch_window(self, key: BatchKey, requests: "list[PendingRequest]") -> None:
        """One ready window (loop thread): shed the expired, run the rest.

        Shedding happens *here*, after queueing and before the engine,
        so expired work never costs a read-lock acquisition or a slot
        in the scan — and a window that sheds to empty never calls
        ``search_batch([])``, which would bump the engine's per-method
        batch counters for work that does not exist.
        """
        now = self._clock()
        live: list[PendingRequest] = []
        for request in requests:
            if request.expired(now):
                self._finish(
                    request,
                    error=DeadlineExceeded(
                        f"request deadline expired after {(now - request.enqueued) * 1000.0:.1f} ms "
                        "in the batching window"
                    ),
                )
                self.metrics.counter("serving.shed").inc()
            else:
                self.metrics.histogram("serving.queue_ms").observe(
                    (now - request.enqueued) * 1000.0
                )
                live.append(request)
        if not live:
            return
        self.metrics.counter("serving.batches").inc()
        self.metrics.histogram("serving.batch_fill").observe(float(len(live)))
        assert self._loop is not None and self._executor is not None
        task = asyncio.wrap_future(
            self._executor.submit(self._run_batch, key, live), loop=self._loop
        )
        self._inflight.add(task)
        task.add_done_callback(lambda done, batch=live: self._deliver(batch, done))

    def _run_batch(self, key: BatchKey, requests: "list[PendingRequest]") -> BatchResult:
        """One engine call per window (executor thread).

        ``engine.search_batch`` takes the reader lock once, so the
        whole window observes one complete federation generation.
        """
        queries = [request.query for request in requests]
        with self.metrics.timer("serving.dispatch_ms"):
            return self.engine.search_batch(queries, method=key.method, k=key.k, h=key.h)

    def _deliver(
        self,
        requests: "list[PendingRequest]",
        done: "asyncio.Future[BatchResult]",
    ) -> None:
        """Fan one window's results back out to its futures (loop thread)."""
        self._inflight.discard(done)
        error = done.exception()
        if error is not None:
            for request in requests:
                self._finish(request, error=error)
            return
        results = done.result()
        now = self._clock()
        for request, result in zip(requests, results):
            self._finish(request, result=result)
            self.metrics.counter("serving.completed").inc()
            self.metrics.histogram("serving.e2e_ms").observe(
                (now - request.enqueued) * 1000.0
            )

    def _finish(
        self,
        request: PendingRequest,
        result: SearchResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Resolve one request's future and retire its queue slot."""
        self._outstanding -= 1
        self.metrics.gauge("serving.queue_depth").set(self._outstanding)
        if request.future.done():  # caller timed out / cancelled the await
            return
        if error is not None:
            request.future.set_exception(error)
        else:
            assert result is not None
            request.future.set_result(result)
