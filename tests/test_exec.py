"""The execution layer: shared buffers, backends, resident shard scans.

Covers the :mod:`repro.linalg` shared-memory buffer (ownership,
refcounts, leak accounting down to ``/dev/shm``), the three backends'
contracts (order-preserving ``map``, worker-cap clamping, persistent
pools — the regression tests for the per-call pool churn this layer
replaced), the process backend's publish/scan/drop worker protocol,
and engine/serving integration: an ``executor="process"`` engine must
rank exactly like an inline one, create no shared segment and release
every mapped file at ``close()``.
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
    EXECUTOR_ENV,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ShardScanSpec,
    ThreadBackend,
    default_pool_size,
    resolve_backend,
)
from repro.linalg import (
    BufferSpec,
    SharedBuffer,
    live_segment_names,
    rowwise_scores,
    segment_scores,
    shared_memory_available,
)
from repro.serving import ServingEngine
from repro.storage import live_mapped_paths

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)

DEV_SHM = Path("/dev/shm")


def shm_segments() -> set[str]:
    """Names under /dev/shm (empty off Linux, where the check is moot)."""
    if not DEV_SHM.is_dir():
        return set()
    return {p.name for p in DEV_SHM.iterdir()}


def make_spec(matrix: np.ndarray, generation: int = 1, shared: bool = True):
    """(ShardScanSpec, owner buffer or None): a centroid matrix, one row
    per relation."""
    offsets = np.arange(matrix.shape[0], dtype=np.intp)
    weights = np.ones(matrix.shape[0], dtype=np.float64)
    buffer = SharedBuffer.from_array(matrix, shared=shared)
    spec = buffer.spec()
    return (
        ShardScanSpec(
            generation=generation,
            buffer=spec,
            matrix=None if spec is not None else buffer.array,
            offsets=offsets,
            weights=weights,
        ),
        buffer,
    )


# -- SharedBuffer ---------------------------------------------------------


class TestSharedBuffer:
    def test_roundtrip_and_spec(self, rng):
        source = rng.standard_normal((6, 4)).astype(np.float32)
        buffer = SharedBuffer.from_array(source)
        try:
            assert np.array_equal(buffer.array, source)
            spec = buffer.spec()
            assert spec is not None
            assert spec.shape == (6, 4) and spec.dtype == "float32"
            view = SharedBuffer.attach(spec)
            try:
                assert np.array_equal(view.array, source)
                assert not view.array.flags.writeable
            finally:
                view.close()
        finally:
            buffer.close()

    def test_owner_copy_is_independent_of_source(self, rng):
        source = rng.standard_normal((3, 3)).astype(np.float32)
        buffer = SharedBuffer.from_array(source)
        try:
            source[...] = 0.0
            assert not np.array_equal(buffer.array, source)
        finally:
            buffer.close()

    def test_close_unlinks_segment_and_registry(self, rng):
        before = shm_segments()
        buffer = SharedBuffer.from_array(rng.standard_normal((4, 4)).astype(np.float32))
        spec = buffer.spec()
        assert spec.name in live_segment_names()
        if DEV_SHM.is_dir():
            assert shm_segments() - before  # the segment exists on disk
        buffer.close()
        assert buffer.closed
        assert spec.name not in live_segment_names()
        assert shm_segments() <= before  # and is gone again
        with pytest.raises(ValueError):
            _ = buffer.array

    def test_refcount_keeps_segment_alive(self, rng):
        buffer = SharedBuffer.from_array(rng.standard_normal((2, 2)).astype(np.float32))
        name = buffer.spec().name
        buffer.addref()
        buffer.close()
        assert not buffer.closed and name in live_segment_names()
        buffer.close()
        assert buffer.closed and name not in live_segment_names()
        with pytest.raises(ValueError):
            buffer.addref()

    def test_close_is_idempotent(self, rng):
        buffer = SharedBuffer.from_array(rng.standard_normal((2, 2)).astype(np.float32))
        buffer.close()
        buffer.close()  # second close is a no-op

    def test_fallback_when_not_shared(self, rng):
        source = rng.standard_normal((3, 2)).astype(np.float32)
        buffer = SharedBuffer.from_array(source, shared=False)
        try:
            assert buffer.spec() is None
            assert np.array_equal(buffer.array, source)
        finally:
            buffer.close()

    def test_zero_size_array_falls_back(self):
        buffer = SharedBuffer.from_array(np.empty((0, 4), dtype=np.float32))
        try:
            assert buffer.spec() is None  # zero-byte segments don't exist
        finally:
            buffer.close()


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
        with InlineBackend() as backend:
            assert not backend.supports_shard_scans
            with pytest.raises(ExecutionError):
                backend.publish_shard("k", None)
            with pytest.raises(ExecutionError):
                backend.scan_shards([("k", 0, np.zeros((1, 2)))])


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
        """``cap`` (the caller's ``workers=``) bounds in-flight lanes even
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
            ("process", ProcessBackend),
        ]:
            backend = resolve_backend(name)
            try:
                assert type(backend) is cls and backend.name == name
            finally:
                backend.close()

    def test_env_variable_default(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "inline")
        backend = resolve_backend(None)
        assert isinstance(backend, InlineBackend)
        monkeypatch.delenv(EXECUTOR_ENV)
        backend = resolve_backend(None)
        try:
            assert isinstance(backend, ThreadBackend)
        finally:
            backend.close()

    def test_instance_passes_through(self):
        with InlineBackend() as backend:
            assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("fibers")

    def test_default_pool_size_bounds(self):
        assert 2 <= default_pool_size() <= 32


# -- the process backend's worker protocol --------------------------------


class TestProcessBackend:
    def test_scan_is_bitwise_identical_to_inline_kernel(self, rng):
        """A worker runs the row-wise centroid kernel exactly as inline."""
        centroids = rng.standard_normal((8, 5))
        queries = rng.standard_normal((3, 5)).astype(np.float32)
        spec, buffer = make_spec(centroids)
        with ProcessBackend(max_workers=2) as backend:
            backend.publish_shard("mean", spec)
            [got] = backend.scan_shards([("mean", 1, queries)])
            assert np.array_equal(got, rowwise_scores(centroids, queries))
            counters = backend.metrics.snapshot()["counters"]
            assert counters["exec.process.shard_scans"] == 1
        buffer.close()

    def test_scan_many_shards_in_request_order(self, rng):
        matrices = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(3)]
        queries = rng.standard_normal((2, 3)).astype(np.float32)
        published = [make_spec(m) for m in matrices]
        with ProcessBackend(max_workers=2) as backend:
            for i, (spec, _) in enumerate(published):
                backend.publish_shard(f"s{i}", spec)
            results = backend.scan_shards([(f"s{i}", 1, queries) for i in range(3)])
            for matrix, scores in zip(matrices, results):
                assert np.array_equal(scores, rowwise_scores(matrix, queries))
        for _, buffer in published:
            buffer.close()

    def test_stale_generation_is_rejected(self, rng):
        spec, buffer = make_spec(rng.standard_normal((4, 3)).astype(np.float32))
        with ProcessBackend(max_workers=1) as backend:
            backend.publish_shard("s0", spec)
            with pytest.raises(ExecutionError, match="stale shard state"):
                backend.scan_shards([("s0", 2, np.zeros((1, 3), dtype=np.float32))])
        buffer.close()

    def test_unpublished_shard_is_rejected(self):
        with ProcessBackend(max_workers=1) as backend:
            with pytest.raises(ExecutionError, match="never published"):
                backend.scan_shards([("ghost", 0, np.zeros((1, 2), dtype=np.float32))])

    def test_drop_forgets_resident_state(self, rng):
        spec, buffer = make_spec(rng.standard_normal((4, 3)).astype(np.float32))
        with ProcessBackend(max_workers=1) as backend:
            backend.publish_shard("s0", spec)
            backend.drop_shard("s0")
            with pytest.raises(ExecutionError, match="no resident state"):
                backend.scan_shards([("s0", 1, np.zeros((1, 3), dtype=np.float32))])
            backend.drop_shard("never-published")  # no-op, not an error
        buffer.close()

    def test_matrix_fallback_without_segment(self, rng):
        """No shared memory for the spec -> the matrix pickles across."""
        matrix = rng.standard_normal((4, 3)).astype(np.float32)
        queries = rng.standard_normal((2, 3)).astype(np.float32)
        spec, buffer = make_spec(matrix, shared=False)
        assert spec.buffer is None and spec.matrix is not None
        with ProcessBackend(max_workers=1) as backend:
            backend.publish_shard("s0", spec)
            [scores] = backend.scan_shards([("s0", 1, queries)])
            assert np.array_equal(scores, rowwise_scores(matrix, queries))
        buffer.close()

    def test_generic_map_still_works(self):
        # Closures can't pickle; generic work runs on the inherited
        # thread pool while only shard scans cross the process boundary.
        with ProcessBackend(max_workers=2) as backend:
            assert backend.map(lambda x: x * 3, [1, 2, 3]) == [3, 6, 9]

    def test_spec_requires_exactly_one_source(self):
        with pytest.raises(ExecutionError):
            ShardScanSpec(
                generation=0,
                buffer=None,
                matrix=None,
                offsets=np.zeros(1, dtype=np.intp),
                weights=np.ones(1),
            )
        with pytest.raises(ExecutionError):
            ShardScanSpec(
                generation=0,
                buffer=BufferSpec("x", (1, 1), "float32"),
                matrix=np.zeros((1, 1), dtype=np.float32),
                offsets=np.zeros(1, dtype=np.intp),
                weights=np.ones(1),
            )


# -- engine integration ---------------------------------------------------


QUERIES = ["vaccination campaign europe", "football league results", "gdp figures"]


def make_engine(tiny_federation, executor, shards: int = 1) -> DiscoveryEngine:
    engine = DiscoveryEngine(dim=48, shards=shards, executor=executor)
    engine.index(tiny_federation)
    return engine


class TestEngineIntegration:
    def test_engine_methods_share_the_executor(self, tiny_federation):
        with make_engine(tiny_federation, "thread") as engine:
            method = engine.method("exs")
            assert method.executor is engine.executor

    def test_search_batch_reuses_one_pool(self, tiny_federation):
        """Satellite regression: repeated ``search_batch(workers>1)``
        calls must not churn fresh pools (ANNS fans queries out)."""
        with make_engine(tiny_federation, ThreadBackend(max_workers=4)) as engine:
            backend = engine.executor
            engine.search_batch(QUERIES, method="anns", workers=4)
            first = backend.pool
            assert first is not None
            engine.search_batch(QUERIES, method="anns", workers=4)
            engine.search_batch(QUERIES, method="anns", workers=2)
            assert backend.pool is first
        backend.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_process_engine_ranks_like_inline(self, tiny_federation, shards):
        with make_engine(tiny_federation, "inline") as baseline:
            with make_engine(tiny_federation, "process", shards=shards) as engine:
                for query_list in (QUERIES,):
                    want = baseline.search_batch(query_list, method="exs", workers=4)
                    got = engine.search_batch(query_list, method="exs", workers=4)
                    for w, g in zip(want, got):
                        assert [m.relation_id for m in w.matches] == [
                            m.relation_id for m in g.matches
                        ]
                        for mw, mg in zip(w.matches, g.matches):
                            assert mg.score == pytest.approx(mw.score, abs=2e-5)

    def test_process_engine_survives_deltas(self, tiny_federation, tiny_relations):
        from repro.datamodel.relation import Relation

        fresh = Relation(
            "museums",
            ["City", "Museum", "Year"],
            [["paris", "louvre", "1793"], ["madrid", "prado", "1819"]],
            caption="museum opening dates",
        )
        with make_engine(tiny_federation, "inline", shards=2) as baseline:
            with make_engine(tiny_federation, "process", shards=2) as engine:
                for eng in (baseline, engine):
                    eng.method("exs")
                    eng.add_relations({"museums/museums": fresh})
                    eng.remove_relations([f"{tiny_relations[1].name}/{tiny_relations[1].name}"])
                want = baseline.search_batch(QUERIES, method="exs", workers=4)
                got = engine.search_batch(QUERIES, method="exs", workers=4)
                for w, g in zip(want, got):
                    assert [m.relation_id for m in w.matches] == [
                        m.relation_id for m in g.matches
                    ]

    def test_engine_close_releases_every_segment(self, tiny_federation):
        """No search path publishes to a worker, so an engine on any
        backend creates no shared segment, and leaves none behind."""
        before_registry = set(live_segment_names())
        before_shm = shm_segments()
        for executor in ("inline", "thread", "process"):
            engine = make_engine(tiny_federation, executor, shards=2)
            engine.search_batch(QUERIES, method="exs", workers=4)
            assert set(live_segment_names()) <= before_registry
            engine.close()
        assert set(live_segment_names()) <= before_registry
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

    def test_env_var_selects_engine_backend(self, tiny_federation, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "inline")
        with make_engine(tiny_federation, None) as engine:
            assert isinstance(engine.executor, InlineBackend)
            assert type(engine.executor) is InlineBackend


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
