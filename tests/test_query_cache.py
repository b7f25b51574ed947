"""The semantic query-result cache: unit, engine and serving behavior.

Unit tests drive :class:`~repro.cache.SemanticResultCache` standalone
(publication is explicit, so per-method invalidation is exercised
directly); the integration halves check the wiring contracts — batch
partition/backfill, the serving fast path that bypasses queue and
window but not the tenant bucket, and the dead-on-arrival admission
fix.  The delta/no-stale-reads property suite lives in
``test_query_cache_properties.py``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import (
    CacheSignature,
    SemanticResultCache,
    resolve_query_cache,
)
from repro.core.engine import DiscoveryEngine
from repro.core.results import RelationMatch
from repro.errors import ConfigurationError, DeadlineExceeded, QueueFull, RateLimited
from repro.serving import RateLimit

QUERIES = [
    "vaccination campaign europe",
    "football league results",
    "gdp figures by country",
    "comirnaty germany",
]


def unit(dim: int, axis: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float32)
    vec[axis] = 1.0
    return vec


def blend(dim: int, axis_a: int, axis_b: int, weight: float) -> np.ndarray:
    """A unit vector at cosine ``weight`` to ``unit(dim, axis_a)``."""
    vec = weight * unit(dim, axis_a) + np.sqrt(1.0 - weight**2) * unit(dim, axis_b)
    return np.asarray(vec, dtype=np.float32)


def matches(*ids: str) -> tuple[RelationMatch, ...]:
    return tuple(RelationMatch(rid, 1.0 - 0.1 * i) for i, rid in enumerate(ids))


SIG = CacheSignature(method="exs", k=4, h=0.0)
ANNS_SIG = CacheSignature(method="anns", k=4, h=0.0)


class TestSemanticResultCache:
    def test_exact_hit_replays_the_same_match_objects(self):
        cache = SemanticResultCache()
        cache.publish_generation("exs", 3)
        stored = matches("a/a", "b/b")
        cache.insert(SIG, "q", unit(8, 0), stored, 3)
        hit = cache.lookup(SIG, "q")
        assert hit is not None and hit.kind == "exact"
        assert hit.matches is stored  # bitwise identity, not a copy
        assert hit.generation == 3
        counters = cache.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert "cache.misses" not in counters

    def test_unpublished_method_never_hits(self):
        cache = SemanticResultCache()
        assert cache.lookup(SIG, "q") is None
        assert cache.metrics.snapshot()["counters"]["cache.misses"] == 1

    def test_signature_isolation(self):
        cache = SemanticResultCache()
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "q", unit(8, 0), matches("a/a"), 1)
        other_k = CacheSignature(method="exs", k=10, h=0.0)
        assert cache.lookup(other_k, "q") is None
        assert cache.lookup(SIG, "q") is not None

    def test_generation_advance_evicts_lazily(self):
        cache = SemanticResultCache()
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "q", unit(8, 0), matches("a/a"), 1)
        cache.publish_generation("exs", 2)
        assert cache.lookup(SIG, "q") is None
        counters = cache.metrics.snapshot()["counters"]
        assert counters["cache.evictions"] == 1
        assert len(cache) == 0

    def test_per_method_granularity(self):
        """An ExS-only generation advance must not nuke ANNS entries."""
        cache = SemanticResultCache()
        cache.publish_generation("exs", 5)
        cache.publish_generation("anns", 5)
        cache.insert(SIG, "q", unit(8, 0), matches("a/a"), 5)
        cache.insert(ANNS_SIG, "q", unit(8, 1), matches("b/b"), 5)
        cache.publish_generation("exs", 6)
        assert cache.lookup(SIG, "q") is None  # exs entry is stale
        anns_hit = cache.lookup(ANNS_SIG, "q")
        assert anns_hit is not None and anns_hit.matches == matches("b/b")

    def test_stale_insert_is_dropped(self):
        cache = SemanticResultCache()
        cache.publish_generation("exs", 7)
        cache.insert(SIG, "q", unit(8, 0), matches("a/a"), 6)  # pre-delta compute
        assert len(cache) == 0
        assert cache.lookup(SIG, "q") is None

    def test_near_hit_above_tau(self):
        cache = SemanticResultCache(tau=0.9)
        cache.publish_generation("exs", 1)
        stored = matches("a/a")
        cache.insert(SIG, "original", unit(8, 0), stored, 1)
        near = cache.lookup(SIG, "paraphrase", encode=lambda: blend(8, 0, 1, 0.95))
        assert near is not None and near.kind == "near"
        assert near.matches is stored
        assert near.source_query == "original"
        assert near.similarity == pytest.approx(0.95, abs=1e-5)
        counters = cache.metrics.snapshot()["counters"]
        assert counters["cache.near_hits"] == 1
        assert cache.metrics.snapshot()["stages"]["cache.probe_ms"]["count"] == 1

    def test_near_miss_below_tau(self):
        cache = SemanticResultCache(tau=0.9)
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "original", unit(8, 0), matches("a/a"), 1)
        assert cache.lookup(SIG, "far", encode=lambda: blend(8, 0, 1, 0.5)) is None
        assert cache.metrics.snapshot()["counters"]["cache.misses"] == 1

    def test_tau_one_is_exact_only(self):
        """tau=1.0 disables the probe: float32 roundoff keeps even a
        re-encoded identical vector a hair below 1.0, so near hits at
        tau=1.0 would be noise, not a guarantee."""
        cache = SemanticResultCache(tau=1.0)
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "original", unit(8, 0), matches("a/a"), 1)
        assert cache.lookup(SIG, "other", encode=lambda: blend(8, 0, 1, 0.999)) is None
        assert cache.lookup(SIG, "original") is not None  # text hit still works
        assert "cache.near_hits" not in cache.metrics.snapshot()["counters"]

    def test_near_hit_respects_generation(self):
        """A near-duplicate must never resurrect a pre-delta ranking."""
        cache = SemanticResultCache(tau=0.9)
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "original", unit(8, 0), matches("a/a"), 1)
        cache.publish_generation("exs", 2)
        assert cache.lookup(SIG, "near", encode=lambda: blend(8, 0, 1, 0.99)) is None

    def test_lru_eviction_by_capacity(self):
        cache = SemanticResultCache(capacity=2)
        cache.publish_generation("exs", 1)
        for i, query in enumerate(["q0", "q1", "q2"]):
            cache.insert(SIG, query, unit(8, i), matches(f"r{i}/r{i}"), 1)
        assert len(cache) == 2
        assert cache.lookup(SIG, "q0") is None  # oldest evicted
        assert cache.lookup(SIG, "q2") is not None
        assert cache.metrics.snapshot()["counters"]["cache.evictions"] == 1

    def test_lru_order_follows_use_not_insertion(self):
        cache = SemanticResultCache(capacity=2)
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "q0", unit(8, 0), matches("a/a"), 1)
        cache.insert(SIG, "q1", unit(8, 1), matches("b/b"), 1)
        assert cache.lookup(SIG, "q0") is not None  # refresh q0
        cache.insert(SIG, "q2", unit(8, 2), matches("c/c"), 1)
        assert cache.lookup(SIG, "q1") is None  # q1 was the LRU
        assert cache.lookup(SIG, "q0") is not None

    def test_byte_bound_and_gauge(self):
        cache = SemanticResultCache(max_bytes=1)  # any entry overflows
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "q0", unit(8, 0), matches("a/a"), 1)
        cache.insert(SIG, "q1", unit(8, 1), matches("b/b"), 1)
        assert len(cache) <= 1
        assert cache.metrics.snapshot()["counters"]["cache.evictions"] >= 1

    def test_bytes_gauge_tracks_inserts_and_invalidation(self):
        cache = SemanticResultCache()
        cache.publish_generation("exs", 1)
        cache.insert(SIG, "q0", unit(8, 0), matches("a/a"), 1)
        gauges = cache.metrics.snapshot()["gauges"]
        assert gauges["cache.bytes"] == float(cache.total_bytes()) > 0
        cache.invalidate_all()
        assert cache.metrics.snapshot()["gauges"]["cache.bytes"] == 0.0
        assert len(cache) == 0

    def test_invalidate_all_bumps_epoch_against_recycled_generations(self):
        """A re-index restarts generation numbering; the epoch bump
        keeps recycled numbers from resurrecting pre-swap entries."""
        cache = SemanticResultCache()
        cache.publish_generation("exs", 0)
        cache.insert(SIG, "q", unit(8, 0), matches("a/a"), 0)
        before = cache.info()["epoch"]
        cache.invalidate_all()
        cache.publish_generation("exs", 0)  # same number, new store
        assert cache.info()["epoch"] == before + 1
        assert cache.lookup(SIG, "q") is None

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SemanticResultCache(capacity=0)
        with pytest.raises(ConfigurationError):
            SemanticResultCache(max_bytes=0)
        with pytest.raises(ConfigurationError):
            SemanticResultCache(tau=0.0)
        with pytest.raises(ConfigurationError):
            SemanticResultCache(tau=1.5)


class TestResolveQueryCache:
    def test_off_by_default(self):
        assert resolve_query_cache(None) is None
        assert resolve_query_cache(False) is None
        assert isinstance(resolve_query_cache(True), SemanticResultCache)

    def test_bad_knobs_rejected(self):
        # Cache settings are constructor arguments of SemanticResultCache;
        # the engine takes no config strings.
        for spec in ("1", "off", "tau=0.9", "window=3"):
            with pytest.raises(ConfigurationError):
                resolve_query_cache(spec)
        with pytest.raises(ConfigurationError):
            DiscoveryEngine(dim=32, query_cache="tau=0.95,capacity=1024")

    def test_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_CACHE", "1")
        assert resolve_query_cache(None) is None
        engine = DiscoveryEngine(dim=32)
        assert engine.query_cache is None
        engine.close()

    def test_instance_passthrough_rebinds_metrics(self):
        cache = SemanticResultCache()
        engine = DiscoveryEngine(dim=32, query_cache=cache)
        assert engine.query_cache is cache
        assert cache.metrics is engine.metrics
        engine.close()


# -- engine integration ------------------------------------------------------


@pytest.fixture()
def cached_engine(tiny_federation) -> DiscoveryEngine:
    engine = DiscoveryEngine(dim=48, query_cache=True)
    engine.index(tiny_federation)
    engine.method("exs")
    yield engine
    engine.close()


class TestEngineIntegration:
    def test_repeat_search_is_bitwise_identical(self, cached_engine):
        first = cached_engine.search(QUERIES[0], method="exs", k=3)
        second = cached_engine.search(QUERIES[0], method="exs", k=3)
        assert second.relation_ids() == first.relation_ids()
        for got, want in zip(second.matches, first.matches):
            assert got.score == want.score  # exact, not approx
        counters = cached_engine.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["exs.queries"] == 1  # the method ran once

    def test_near_duplicate_text_hits(self, cached_engine):
        """Repeating the query text leaves the mean-pooled embedding's
        direction unchanged — a textbook near-duplicate."""
        first = cached_engine.search(QUERIES[0], method="exs", k=3)
        doubled = f"{QUERIES[0]} {QUERIES[0]}"
        near = cached_engine.search(doubled, method="exs", k=3)
        assert near.relation_ids() == first.relation_ids()
        assert cached_engine.metrics.snapshot()["counters"]["cache.near_hits"] == 1

    def test_batch_partitions_hits_and_misses(self, cached_engine):
        # Warm two of four queries.
        for query in QUERIES[:2]:
            cached_engine.search(query, method="exs", k=3)
        batch = cached_engine.search_batch(QUERIES, method="exs", k=3)
        counters = cached_engine.metrics.snapshot()["counters"]
        # ONE residual dispatch carried the two misses.
        assert counters["exs.batches"] == 1
        assert counters["cache.hits"] == 2
        for query, result in zip(QUERIES, batch):
            direct = cached_engine.method("exs").search(query, k=3)
            assert result.relation_ids() == direct.relation_ids()

    def test_all_hit_batch_never_reaches_the_method(self, cached_engine):
        cached_engine.search_batch(QUERIES, method="exs", k=3)
        counters = cached_engine.metrics.snapshot()["counters"]
        assert counters["exs.batches"] == 1
        cached_engine.search_batch(QUERIES, method="exs", k=3)  # fully warm
        counters = cached_engine.metrics.snapshot()["counters"]
        assert counters["exs.batches"] == 1  # unchanged: no residual batch
        assert counters["engine.batches"] == 2  # the engine call still counted

    def test_delta_invalidates(self, cached_engine):
        from repro.datamodel.relation import Relation

        cached_engine.search(QUERIES[0], method="exs", k=3)  # warm the cache
        hits_before = cached_engine.metrics.snapshot()["counters"].get("cache.hits", 0)
        cached_engine.add_relations(
            {"new/new": Relation("new", ["A"], [["vaccination europe"]], caption="new")}
        )
        fresh = cached_engine.search(QUERIES[0], method="exs", k=3)
        reference = cached_engine.method("exs").search(QUERIES[0], k=3)
        assert fresh.relation_ids() == reference.relation_ids()
        assert (
            cached_engine.metrics.snapshot()["counters"].get("cache.hits", 0)
            == hits_before
        )

    def test_reindex_invalidates_despite_recycled_generation(
        self, cached_engine, tiny_federation
    ):
        cached_engine.search(QUERIES[0], method="exs", k=3)
        assert len(cached_engine.query_cache) == 1
        cached_engine.index(tiny_federation)  # generation restarts at 0
        assert len(cached_engine.query_cache) == 0
        result = cached_engine.search(QUERIES[0], method="exs", k=3)
        assert result.relation_ids()
        counters = cached_engine.metrics.snapshot()["counters"]
        # Both searches were misses: the reindex dropped the warm entry.
        assert counters.get("cache.hits", 0) == 0
        assert counters["cache.misses"] == 2


# -- serving integration -----------------------------------------------------


def run(coro):
    return asyncio.run(coro)


class TestServingCache:
    def test_hit_resolves_without_queue_slot_or_window(self, cached_engine):
        warm = cached_engine.search(QUERIES[0], method="exs", k=3)
        base = cached_engine.metrics.snapshot()["counters"]

        async def serve():
            async with cached_engine.serving(window_ms=2.0) as serving:
                result = await serving.submit(QUERIES[0], method="exs", k=3)
                assert serving.outstanding == 0  # never took a slot
                return result

        result = run(serve())
        assert result.relation_ids() == warm.relation_ids()
        counters = cached_engine.metrics.snapshot()["counters"]
        assert counters["serving.cache_hits"] == 1
        assert counters["serving.completed"] == 1
        assert "serving.batches" not in counters  # no window dispatched
        assert counters.get("exs.batches", 0) == base.get("exs.batches", 0)  # never bumped

    def test_hit_bypasses_a_full_queue(self, cached_engine):
        cached_engine.search(QUERIES[0], method="exs", k=3)

        async def serve():
            async with cached_engine.serving(
                window_ms=60_000.0, max_batch=8, max_queue=1
            ) as serving:
                parked = asyncio.ensure_future(
                    serving.submit(QUERIES[1], method="exs", k=3)
                )
                await asyncio.sleep(0)
                with pytest.raises(QueueFull):
                    await serving.submit(QUERIES[2], method="exs", k=3)
                # The warm query sails past the full queue.
                hit = await serving.submit(QUERIES[0], method="exs", k=3)
                assert hit.relation_ids()
                serving.batcher.flush_all()
                await parked

        run(serve())

    def test_hit_still_pays_the_token_bucket(self, cached_engine):
        cached_engine.search(QUERIES[0], method="exs", k=3)
        limits = {"greedy": RateLimit(rate=0.001, burst=1.0)}

        async def serve():
            async with cached_engine.serving(
                window_ms=2.0, tenant_limits=limits
            ) as serving:
                await serving.submit(QUERIES[0], method="exs", k=3, tenant="greedy")
                with pytest.raises(RateLimited):
                    await serving.submit(
                        QUERIES[0], method="exs", k=3, tenant="greedy"
                    )

        run(serve())
        counters = cached_engine.metrics.snapshot()["counters"]
        assert counters["serving.cache_hits"] == 1
        assert counters["serving.throttled"] == 1


class TestDeadOnArrivalAdmission:
    """Satellite regression: a dead-on-arrival request must not burn a
    token-bucket token or a queue slot on its way to being shed."""

    def test_doa_burns_neither_token_nor_slot(self):
        engine = DiscoveryEngine(dim=48)
        try:
            limits = {"t": RateLimit(rate=0.001, burst=1.0)}

            async def serve():
                async with engine.serving(
                    window_ms=2.0, tenant_limits=limits, max_queue=4
                ) as serving:
                    with pytest.raises(DeadlineExceeded):
                        await serving.submit(
                            "anything", method="exs", k=3, tenant="t", timeout_ms=0.0
                        )
                    assert serving.outstanding == 0  # no queue slot consumed

            run(serve())
            counters = engine.metrics.snapshot()["counters"]
            assert counters["serving.shed"] == 1
            assert "serving.throttled" not in counters
            assert "serving.submitted" not in counters  # shed before admission
        finally:
            engine.close()

    def test_token_survives_doa_and_admits_the_next_request(self, cached_engine):
        limits = {"t": RateLimit(rate=0.001, burst=1.0)}

        async def serve():
            async with cached_engine.serving(
                window_ms=2.0, tenant_limits=limits
            ) as serving:
                with pytest.raises(DeadlineExceeded):
                    await serving.submit(
                        QUERIES[0], method="exs", k=3, tenant="t", timeout_ms=0.0
                    )
                # The bucket still holds its one burst token.
                result = await serving.submit(QUERIES[0], method="exs", k=3, tenant="t")
                assert result.relation_ids()

        run(serve())


@pytest.mark.parametrize("first", ["repro.cache", "repro.serving", "repro.core"])
def test_packages_import_in_any_order(first):
    """``repro.cache`` builds on ``repro.core.results``, whose import
    runs ``repro/core/__init__.py`` and with it the engine — which used
    to import the half-initialized cache straight back."""
    src = Path(repro.__file__).resolve().parents[1]
    others = {"repro.cache", "repro.serving", "repro.core"} - {first}
    done = subprocess.run(
        [sys.executable, "-c", f"import {first}; import {', '.join(sorted(others))}"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
