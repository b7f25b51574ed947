"""The execution layer: backends and their engine/serving integration.

Covers the two backends' contracts (order-preserving ``map``,
worker-cap clamping, persistent pools — the regression tests for the
per-call pool churn this layer replaced), backend resolution, and
engine/serving integration: an engine built in another interpreter
must rank exactly like an inline one here, and no engine creates a
shared-memory segment or keeps a mapped file past ``close()``.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import DiscoveryEngine
from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    ExecutionBackend,
    InlineBackend,
    ThreadBackend,
    default_pool_size,
    resolve_backend,
)
from repro.linalg import segment_scores
from repro.serving import ServingEngine
from repro.storage import live_mapped_paths

from tests.crossprocess import run_elsewhere

DEV_SHM = Path("/dev/shm")


def shm_segments() -> set[str]:
    """Names under /dev/shm (empty off Linux, where the check is moot)."""
    if not DEV_SHM.is_dir():
        return set()
    return {p.name for p in DEV_SHM.iterdir()}


class TestSegmentScores:
    def test_mean_matches_manual_reduction(self, rng):
        sims = rng.standard_normal((6, 3))
        offsets = np.array([0, 2, 5], dtype=np.intp)
        weights = rng.random(6)
        got = segment_scores(sims, offsets, weights, aggregate="mean")
        expected = np.add.reduceat(sims * weights[:, np.newaxis], offsets, axis=0)
        assert np.array_equal(got, expected)

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ValueError):
            segment_scores(np.zeros((2, 1)), np.zeros(1, dtype=np.intp), np.ones(2), aggregate="median")


# -- backend contracts ----------------------------------------------------


class TestInlineBackend:
    def test_map_preserves_order(self):
        with InlineBackend() as backend:
            assert backend.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_submit_returns_future(self):
        with InlineBackend() as backend:
            assert backend.submit(lambda a, b: a + b, 2, 3).result() == 5

    def test_submit_captures_exception(self):
        def boom() -> None:
            raise RuntimeError("inline boom")

        with InlineBackend() as backend:
            with pytest.raises(RuntimeError, match="inline boom"):
                backend.submit(boom).result()

    def test_no_shard_surface(self):
        """No backend hosts resident scan state: the publish/scan
        protocol is gone from the base class, not left unimplemented."""
        for backend in (InlineBackend(), ThreadBackend(max_workers=1)):
            with backend:
                for name in ("publish_shard", "drop_shard", "scan_shards", "supports_shard_scans"):
                    assert not hasattr(backend, name)


class TestThreadBackend:
    def test_map_preserves_order(self):
        with ThreadBackend(max_workers=4) as backend:
            assert backend.map(lambda x: x + 1, list(range(20))) == list(range(1, 21))

    def test_pool_persists_across_calls(self):
        """The regression the exec layer exists for: repeated maps reuse
        ONE pool instead of constructing one per call."""
        with ThreadBackend(max_workers=3) as backend:
            assert backend.pool is None  # lazy until first parallel work
            backend.map(lambda x: x, [1, 2, 3])
            first = backend.pool
            assert first is not None
            backend.map(lambda x: x, [4, 5, 6])
            backend.submit(lambda: None).result()
            assert backend.pool is first

    def test_cap_clamps_concurrency(self):
        """``cap`` (the caller's concurrency bound) bounds in-flight lanes even
        when the pool itself is larger."""
        active = 0
        peak = 0
        lock = threading.Lock()

        def task(_: int) -> int:
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with lock:
                active -= 1
            return 0

        with ThreadBackend(max_workers=8) as backend:
            backend.map(task, list(range(12)), cap=2)
        assert peak <= 2

    def test_worker_count_is_bounded(self):
        """No ``max_workers=len(items)`` explosions: a huge item list
        still runs on the configured pool size."""
        with ThreadBackend(max_workers=2) as backend:
            assert backend.map(lambda x: x, list(range(500))) == list(range(500))
            assert backend.pool._max_workers == 2

    def test_map_propagates_errors(self):
        def sometimes(x: int) -> int:
            if x == 7:
                raise ValueError("lane error")
            return x

        with ThreadBackend(max_workers=4) as backend:
            with pytest.raises(ValueError, match="lane error"):
                backend.map(sometimes, list(range(10)))

    def test_closed_backend_rejects_work(self):
        backend = ThreadBackend(max_workers=2)
        backend.map(lambda x: x, [1, 2])
        backend.close()
        with pytest.raises(ExecutionError):
            backend.map(lambda x: x, [1, 2])
        with pytest.raises(ExecutionError):
            backend.submit(lambda: None)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(max_workers=0)

    def test_records_exec_metrics(self):
        with ThreadBackend(max_workers=2) as backend:
            backend.map(lambda x: x, [1, 2, 3, 4])
            snapshot = backend.metrics.snapshot()
        assert snapshot["counters"]["exec.thread.tasks"] >= 1
        assert snapshot["gauges"]["exec.thread.pool_size"] == 2


class TestResolveBackend:
    def test_names(self):
        for name, cls in [
            ("inline", InlineBackend),
            ("thread", ThreadBackend),
            (None, ThreadBackend),
        ]:
            backend = resolve_backend(name)
            try:
                assert type(backend) is cls and backend.name == (name or "thread")
            finally:
                backend.close()

    def test_instance_passes_through(self):
        with InlineBackend() as backend:
            assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        for name in ("fibers", "process"):
            with pytest.raises(ConfigurationError, match="'inline' or 'thread'"):
                resolve_backend(name)

    def test_default_pool_size_bounds(self):
        assert 2 <= default_pool_size() <= 32


# -- engine integration ---------------------------------------------------


QUERIES = ["vaccination campaign europe", "football league results", "gdp figures"]
#: Lexicon-heavy texts: concept expansion walks sets, whose order follows
#: ``PYTHONHASHSEED``, so their float64 vectors move between hash seeds
#: unless the lexicon iterates in sorted order.
EXPANDED = ["comirnaty booster in california", "pfizer moderna vaccination texas hospital"]


def make_engine(tiny_federation, executor, shards: int = 1) -> DiscoveryEngine:
    engine = DiscoveryEngine(dim=48, shards=shards, executor=executor)
    engine.index(tiny_federation)
    return engine


def exs_answers(federation, executor, shards=1, add=None, remove=()):
    """Every query's ExS ``(relation_id, score)`` list from a fresh
    engine (float64 scores of float32 queries against float64
    centroids), after an optional delta patched into the built index."""
    engine = DiscoveryEngine(dim=48, shards=shards, executor=executor)
    with engine.index(federation):
        engine.method("exs")
        if add:
            engine.add_relations(add)
        if remove:
            engine.remove_relations(list(remove))
        batch = engine.search_batch(QUERIES + EXPANDED, method="exs", k=10, h=-1.0)
        return [[(m.relation_id, m.score) for m in result.matches] for result in batch]


class TestEngineIntegration:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_process_engine_ranks_like_inline(self, tiny_federation, shards):
        """Thread-backend engines in two other interpreters, under two
        hash seeds, return the inline engine's answers bit for bit."""
        want = exs_answers(tiny_federation, "inline")
        for seed in ("0", "1"):
            got = run_elsewhere(exs_answers, tiny_federation, "thread", shards, hash_seed=seed)
            assert got == want

    def test_process_engine_survives_deltas(self, tiny_federation, tiny_relations):
        from repro.datamodel.relation import Relation

        add = {
            "museums/museums": Relation(
                "museums",
                ["City", "Museum", "Year"],
                [["paris", "louvre", "1793"], ["madrid", "prado", "1819"]],
                caption="museum opening dates",
            )
        }
        remove = [f"{tiny_relations[1].name}/{tiny_relations[1].name}"]
        want = exs_answers(tiny_federation, "inline", 2, add, remove)
        assert {rid for rid, _ in want[0]} == {
            "vaccines/vaccines",
            "economy/economy",
            "museums/museums",
        }
        got = run_elsewhere(exs_answers, tiny_federation, "thread", 2, add, remove)
        assert got == want

    def test_engine_close_releases_every_segment(self, tiny_federation):
        """No engine creates a shared-memory segment on either backend,
        so none can outlive ``close()``."""
        before_shm = shm_segments()
        for executor in ("inline", "thread"):
            engine = make_engine(tiny_federation, executor, shards=2)
            engine.search_batch(QUERIES, method="exs")
            assert shm_segments() <= before_shm
            engine.close()
        assert shm_segments() <= before_shm  # nothing leaked in /dev/shm

    def test_engine_close_releases_mapped_segments(self, tiny_federation, tmp_path):
        """A mapped load holds its snapshot segment files until
        ``close()``, and not a moment after."""
        with make_engine(tiny_federation, "thread") as saver:
            saver.save_index(tmp_path / "snap")
        engine = DiscoveryEngine(dim=48, executor="thread").load_index(
            tmp_path / "snap", mmap=True
        )
        engine.search_batch(QUERIES, method="exs")
        assert live_mapped_paths()  # segments mapped
        engine.close()
        assert not live_mapped_paths()


# -- serving integration --------------------------------------------------


class TestServingIntegration:
    def test_injected_backend_survives_drain(self, tiny_federation):
        import asyncio

        with make_engine(tiny_federation, "thread") as engine:
            engine.method("exs")
            backend = ThreadBackend(max_workers=2)

            async def roundtrip() -> None:
                async with ServingEngine(engine, executor=backend) as serving:
                    assert serving._executor is backend
                    result = await serving.submit(QUERIES[0], method="exs", k=3)
                    assert result.matches

            asyncio.run(roundtrip())
            # drain() must not close a backend it doesn't own.
            assert backend.map(lambda x: x, [1]) == [1]
            backend.close()

    def test_owned_backend_is_closed_on_drain(self, tiny_federation):
        import asyncio

        with make_engine(tiny_federation, "thread") as engine:
            engine.method("exs")
            serving = ServingEngine(engine, dispatch_workers=2)

            async def roundtrip() -> None:
                async with serving:
                    await serving.submit(QUERIES[0], method="exs", k=3)

            asyncio.run(roundtrip())
            owned = serving._executor
            assert isinstance(owned, ExecutionBackend)
            with pytest.raises(ExecutionError):
                owned.map(lambda x: x, [1, 2])
