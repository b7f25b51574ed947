"""The async serving front end: batching, admission, deadlines, drain.

Functional coverage for :mod:`repro.serving` over a small indexed
engine, plus clock-injected unit tests for the pure admission pieces
(token buckets, the admission controller, the micro-batcher).  The
concurrency/property side — rank identity under many workers and
writer deltas racing a drain — lives in ``test_serving_stress.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.engine import DiscoveryEngine
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    QueueFull,
    RateLimited,
    ServingClosed,
)
from repro.serving import (
    AdmissionController,
    BatchKey,
    MicroBatcher,
    PendingRequest,
    RateLimit,
    ServingEngine,
    TenantRateLimiter,
    TokenBucket,
)

QUERIES = [
    "vaccination campaign europe",
    "football league results",
    "gdp figures by country",
    "comirnaty germany",
    "ajax trophy",
]


@pytest.fixture()
def engine(tiny_federation) -> DiscoveryEngine:
    eng = DiscoveryEngine(dim=48)
    eng.index(tiny_federation)
    eng.method("exs")  # build outside the timed/async paths
    return eng


def run(coro):
    return asyncio.run(coro)


# -- the happy path ----------------------------------------------------------


def test_submit_matches_direct_search(engine):
    """Every batched answer is element-wise identical to engine.search."""

    async def serve() -> list:
        async with engine.serving(window_ms=5.0, max_batch=4) as serving:
            return await asyncio.gather(
                *(serving.submit(q, method="exs", k=3) for q in QUERIES)
            )

    served = run(serve())
    for query, result in zip(QUERIES, served):
        direct = engine.search(query, method="exs", k=3)
        assert result.relation_ids() == direct.relation_ids()
        # A window is a search_batch call and a single query a batch of
        # one through the same row-wise kernel: the scores are the bits.
        for got, want in zip(result.matches, direct.matches):
            assert got.score == want.score


def test_concurrent_submits_coalesce_into_windows(engine):
    """5 concurrent submits with max_batch=4 -> exactly 2 windows."""

    async def serve():
        async with engine.serving(window_ms=20.0, max_batch=4) as serving:
            await asyncio.gather(
                *(serving.submit(q, method="exs", k=3) for q in QUERIES)
            )

    run(serve())
    snap = engine.metrics.snapshot()
    assert snap["counters"]["serving.submitted"] == 5
    assert snap["counters"]["serving.completed"] == 5
    assert snap["counters"]["serving.batches"] == 2
    fills = snap["stages"]["serving.batch_fill"]
    assert fills["count"] == 2
    assert snap["gauges"]["serving.queue_depth"] == 0


def test_incompatible_requests_never_share_a_window(engine):
    """Different k values are different dispatch signatures."""

    async def serve():
        async with engine.serving(window_ms=20.0, max_batch=8) as serving:
            results = await asyncio.gather(
                serving.submit(QUERIES[0], method="exs", k=1),
                serving.submit(QUERIES[1], method="exs", k=1),
                serving.submit(QUERIES[2], method="exs", k=3, h=-1.0),
            )
            return results

    k1a, k1b, k3 = run(serve())
    assert len(k1a.matches) == 1 and len(k1b.matches) == 1
    assert len(k3.matches) == 3
    # Two keys -> two windows, even though one window had room for all.
    assert engine.metrics.snapshot()["counters"]["serving.batches"] == 2


def test_size_trigger_fires_before_window(engine):
    """A full window dispatches immediately; nobody waits out a huge
    window_ms when max_batch requests are already parked."""

    async def serve():
        serving = engine.serving(window_ms=60_000.0, max_batch=len(QUERIES))
        async with serving:
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(serving.submit(q, method="exs", k=3) for q in QUERIES)
                ),
                timeout=10.0,
            )
            return results

    assert len(run(serve())) == len(QUERIES)


def test_serving_factory_and_context_manager(engine):
    serving = engine.serving(window_ms=1.0)
    assert isinstance(serving, ServingEngine)
    assert serving.engine is engine
    assert serving.metrics is engine.metrics  # one registry, whole path
    assert serving.state == "idle"

    async def use():
        async with serving as s:
            assert s.state == "running"
            await s.submit(QUERIES[0], method="exs", k=2)
        assert s.state == "closed"

    run(use())


# -- deadlines and the empty-window bugfix -----------------------------------


def test_expired_requests_are_shed_not_dispatched(engine):
    """timeout_ms=0 expires in the window: shed with DeadlineExceeded,
    and the engine must never see an empty batch (the ``search_batch([])``
    call would bump ``exs.batches`` for work that does not exist)."""
    base_batches = engine.metrics.snapshot()["counters"].get("exs.batches", 0)

    async def serve():
        async with engine.serving(window_ms=1.0, max_batch=8) as serving:
            outcomes = await asyncio.gather(
                *(
                    serving.submit(q, method="exs", k=3, timeout_ms=0.0)
                    for q in QUERIES
                ),
                return_exceptions=True,
            )
            return outcomes

    outcomes = run(serve())
    assert all(isinstance(o, DeadlineExceeded) for o in outcomes)
    snap = engine.metrics.snapshot()
    assert snap["counters"]["serving.shed"] == len(QUERIES)
    assert "serving.batches" not in snap["counters"]  # no window dispatched
    assert snap["counters"].get("exs.batches", 0) == base_batches
    assert snap["gauges"]["serving.queue_depth"] == 0


def test_mixed_window_sheds_only_the_expired(engine):
    """Live and expired requests in one window: the live ones are
    answered from a batch that excludes the dead ones."""

    async def serve():
        async with engine.serving(window_ms=10.0, max_batch=8) as serving:
            return await asyncio.gather(
                serving.submit(QUERIES[0], method="exs", k=3, timeout_ms=0.0),
                serving.submit(QUERIES[1], method="exs", k=3),
                serving.submit(QUERIES[2], method="exs", k=3, timeout_ms=0.0),
                serving.submit(QUERIES[3], method="exs", k=3),
                return_exceptions=True,
            )

    dead0, live1, dead2, live3 = run(serve())
    assert isinstance(dead0, DeadlineExceeded)
    assert isinstance(dead2, DeadlineExceeded)
    assert live1.relation_ids() == engine.search(QUERIES[1], method="exs", k=3).relation_ids()
    assert live3.relation_ids() == engine.search(QUERIES[3], method="exs", k=3).relation_ids()
    snap = engine.metrics.snapshot()
    assert snap["counters"]["serving.shed"] == 2
    assert snap["counters"]["serving.completed"] == 2
    assert snap["stages"]["serving.batch_fill"]["max_ms"] == 2.0  # live only


def test_generous_deadline_is_met(engine):
    async def serve():
        async with engine.serving(window_ms=1.0) as serving:
            return await serving.submit(
                QUERIES[0], method="exs", k=3, timeout_ms=30_000.0
            )

    assert run(serve()).relation_ids()


def test_negative_timeout_rejected(engine):
    async def serve():
        async with engine.serving() as serving:
            with pytest.raises(ConfigurationError):
                await serving.submit(QUERIES[0], method="exs", timeout_ms=-1.0)

    run(serve())


# -- admission: backpressure and tenant budgets ------------------------------


def test_queue_full_rejects_with_retry_hint(engine):
    """max_queue=1 and a parked request: the second submit is rejected
    at the door with a usable retry-after hint."""

    async def serve():
        async with engine.serving(window_ms=60_000.0, max_batch=8, max_queue=1) as serving:
            first = asyncio.ensure_future(serving.submit(QUERIES[0], method="exs", k=3))
            await asyncio.sleep(0)  # park the first request in its window
            with pytest.raises(QueueFull) as excinfo:
                await serving.submit(QUERIES[1], method="exs", k=3)
            assert excinfo.value.retry_after_ms > 0.0
            serving.batcher.flush_all()  # release the parked window
            await first

    run(serve())
    assert engine.metrics.snapshot()["counters"]["serving.rejected"] == 1


def test_tenant_rate_limit_isolates_tenants(engine):
    """Tenant A saturating its bucket throttles only tenant A."""
    limits = {"alpha": RateLimit(rate=0.001, burst=1.0)}

    async def serve():
        async with engine.serving(window_ms=1.0, tenant_limits=limits) as serving:
            await serving.submit(QUERIES[0], method="exs", k=3, tenant="alpha")
            with pytest.raises(RateLimited) as excinfo:
                await serving.submit(QUERIES[1], method="exs", k=3, tenant="alpha")
            assert excinfo.value.tenant == "alpha"
            assert excinfo.value.retry_after_ms > 0.0
            # Unlimited tenants sail through while alpha is throttled.
            result = await serving.submit(QUERIES[1], method="exs", k=3, tenant="beta")
            assert result.relation_ids()

    run(serve())
    counters = engine.metrics.snapshot()["counters"]
    assert counters["serving.throttled"] == 1
    assert counters["serving.tenant.alpha.throttled"] == 1
    assert "serving.tenant.beta.throttled" not in counters


def test_default_limit_applies_to_unknown_tenants(engine):
    async def serve():
        async with engine.serving(
            window_ms=1.0, default_limit=RateLimit(rate=0.001, burst=1.0)
        ) as serving:
            await serving.submit(QUERIES[0], method="exs", k=3, tenant="anyone")
            with pytest.raises(RateLimited):
                await serving.submit(QUERIES[1], method="exs", k=3, tenant="anyone")

    run(serve())


# -- drain and lifecycle -----------------------------------------------------


def test_drain_flushes_pending_then_closes(engine):
    """drain() answers every parked request, then refuses new ones."""

    async def serve():
        serving = engine.serving(window_ms=60_000.0, max_batch=8)
        async with serving:
            parked = [
                asyncio.ensure_future(serving.submit(q, method="exs", k=3))
                for q in QUERIES
            ]
            await asyncio.sleep(0)
            assert serving.outstanding == len(QUERIES)
            await serving.drain()
            assert serving.state == "closed"
            for future in parked:
                assert future.result().relation_ids()
            with pytest.raises(ServingClosed):
                await serving.submit(QUERIES[0], method="exs", k=3)

    run(serve())
    snap = engine.metrics.snapshot()
    assert snap["counters"]["serving.completed"] == len(QUERIES)
    assert snap["gauges"]["serving.queue_depth"] == 0


def test_drain_is_idempotent(engine):
    async def serve():
        serving = engine.serving()
        async with serving:
            await serving.submit(QUERIES[0], method="exs", k=2)
        await serving.drain()  # second drain: already closed, no-op
        assert serving.state == "closed"

    run(serve())


def test_drain_without_traffic(engine):
    async def serve():
        serving = engine.serving()
        await serving.drain()  # never started: closes directly from idle
        assert serving.state == "closed"

    run(serve())


def test_unknown_method_error_reaches_the_caller(engine):
    """Engine-side failures fail the window's futures, not the loop."""

    async def serve():
        async with engine.serving(window_ms=1.0) as serving:
            with pytest.raises(ConfigurationError, match="unknown method"):
                await serving.submit(QUERIES[0], method="nope", k=3)

    run(serve())
    assert engine.metrics.snapshot()["gauges"]["serving.queue_depth"] == 0


def test_serving_config_validation(engine):
    with pytest.raises(ConfigurationError):
        engine.serving(window_ms=-1.0)
    with pytest.raises(ConfigurationError):
        engine.serving(max_batch=0)
    with pytest.raises(ConfigurationError):
        engine.serving(max_queue=0)
    with pytest.raises(ConfigurationError):
        engine.serving(dispatch_workers=0)
    with pytest.raises(ConfigurationError):
        engine.serving(batch_workers=0)
    with pytest.raises(ConfigurationError):
        RateLimit(rate=0.0, burst=1.0)
    with pytest.raises(ConfigurationError):
        RateLimit(rate=1.0, burst=0.5)


# -- clock-injected unit tests: the pure admission pieces --------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(RateLimit(rate=2.0, burst=2.0), now=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # One token regenerates in 1/rate = 0.5 s.
        assert bucket.retry_after(0.0) == pytest.approx(0.5)
        assert bucket.try_acquire(0.5)
        assert not bucket.try_acquire(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(RateLimit(rate=10.0, burst=3.0), now=0.0)
        assert bucket.tokens == 3.0
        bucket.try_acquire(0.0)
        bucket._refill(100.0)  # hours of idle never exceed the burst
        assert bucket.tokens == 3.0

    def test_clock_going_backwards_is_harmless(self):
        bucket = TokenBucket(RateLimit(rate=1.0, burst=1.0), now=10.0)
        assert bucket.try_acquire(10.0)
        assert not bucket.try_acquire(5.0)  # no refill from the past
        assert bucket.try_acquire(11.0)


class TestTenantRateLimiter:
    def test_none_default_admits_unknown_tenants(self):
        limiter = TenantRateLimiter(default_limit=None)
        assert all(limiter.admit("anyone", float(t)) is None for t in range(100))

    def test_pinned_budget_beats_default(self):
        limiter = TenantRateLimiter(
            default_limit=RateLimit(rate=100.0, burst=100.0),
            per_tenant={"slow": RateLimit(rate=1.0, burst=1.0)},
        )
        assert limiter.admit("slow", 0.0) is None
        retry = limiter.admit("slow", 0.0)
        assert retry is not None and retry == pytest.approx(1.0)
        assert limiter.admit("fast", 0.0) is None  # default bucket


class TestAdmissionController:
    def make(self, **kwargs) -> AdmissionController:
        defaults = dict(max_queue=4, window_ms=3.0, max_batch=2)
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_retry_after_scales_with_backlog(self):
        control = self.make()
        assert control.retry_after_ms(1) == pytest.approx(3.0)  # one window
        assert control.retry_after_ms(4) == pytest.approx(6.0)  # two windows
        assert control.retry_after_ms(9) == pytest.approx(15.0)

    def test_queue_bound(self):
        control = self.make()
        control.admit("t", 3, 0.0)
        with pytest.raises(QueueFull):
            control.admit("t", 4, 0.0)

    def test_bucket_checked_before_queue(self):
        """A throttled tenant gets RateLimited even when the queue is
        also full — it must not learn queue state it cannot use."""
        control = self.make(tenant_limits={"a": RateLimit(rate=0.001, burst=1.0)})
        control.admit("a", 0, 0.0)
        with pytest.raises(RateLimited):
            control.admit("a", 99, 0.0)

    def test_deadline_stamping(self):
        control = self.make()
        assert control.deadline(None, 5.0) is None
        assert control.deadline(250.0, 5.0) == pytest.approx(5.25)
        with pytest.raises(ConfigurationError):
            control.deadline(-1.0, 5.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=0, window_ms=3.0, max_batch=2)


class TestMicroBatcher:
    def test_size_trigger_and_flush_all_chunking(self):
        dispatched: list[int] = []

        async def drive():
            batcher = MicroBatcher(
                60_000.0, 2, lambda key, batch: dispatched.append(len(batch))
            )
            loop = asyncio.get_running_loop()
            key = BatchKey(method="exs", k=3, h=0.0)
            for i in range(5):
                batcher.add(
                    PendingRequest(
                        query=f"q{i}", key=key, tenant="t", future=loop.create_future()
                    )
                )
            assert dispatched == [2, 2]  # size trigger, twice
            assert batcher.depth == 1
            batcher.flush_all()
            assert dispatched == [2, 2, 1]
            assert batcher.depth == 0
            batcher.flush(key)  # empty flush is a no-op, not a [] dispatch
            assert dispatched == [2, 2, 1]

        run(drive())

    def test_keys_age_independently(self):
        dispatched: list[tuple] = []

        async def drive():
            batcher = MicroBatcher(
                60_000.0, 8, lambda key, batch: dispatched.append((key, len(batch)))
            )
            loop = asyncio.get_running_loop()
            k3 = BatchKey(method="exs", k=3, h=0.0)
            k5 = BatchKey(method="exs", k=5, h=0.0)
            for key in (k3, k5, k3):
                batcher.add(
                    PendingRequest(
                        query="q", key=key, tenant="t", future=loop.create_future()
                    )
                )
            batcher.flush(k3)
            assert dispatched == [(k3, 2)]
            assert batcher.depth == 1  # k5 still parked
            batcher.flush_all()
            assert dispatched == [(k3, 2), (k5, 1)]

        run(drive())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(-1.0, 2, lambda key, batch: None)
        with pytest.raises(ConfigurationError):
            MicroBatcher(1.0, 0, lambda key, batch: None)
