"""The knob table: every constructor parameter of the engine, its three
methods and the serving front end, with the evidence that it is live.

Each row is a check that two values of one parameter change the
answers, or a named metric, on a seeded 20-table WikiTables corpus.
:data:`FROZEN_LEDGER` lists the only parameters kept without that
evidence, with the reason; their rows assert the opposite, that answers
are identical across two values.  A constructor parameter without a row
fails :func:`test_every_parameter_has_a_row`, so a new knob brings its
row, and a knob that can show neither is deleted rather than listed.
README's *Knobs* table mirrors this file.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import json
from collections.abc import Callable
from typing import Any

import numpy as np
import pytest

from repro.core import ANNSearch, ClusteredTargetedSearch, DiscoveryEngine, ExhaustiveSearch
from repro.data.wikitables import generate_wikitables_corpus
from repro.datamodel import Dataset, Federation, Relation
from repro.embedding import SemanticHashEncoder
from repro.errors import QueueFull, RateLimited, SanitizerError
from repro.exec import InlineBackend
from repro.obs import MetricsRegistry
from repro.serving import RateLimit, ServingEngine

CLASSES = (DiscoveryEngine, ExhaustiveSearch, ANNSearch, ClusteredTargetedSearch, ServingEngine)

#: Parameters kept only because the frozen perf ledger (``bench/``)
#: passes them; their rows show they change nothing.
FROZEN_LEDGER = {
    (DiscoveryEngine, "shards"): "every method answers from one index over the whole federation",
    (DiscoveryEngine, "executor"): "idle: every method scans on the calling thread",
}

#: ``(class, parameter) -> check``.
ROWS: dict[tuple[type, str], Callable[[], None]] = {}

#: ANNS on the paper's ``hnsw+pq`` index at a budget small enough that
#: the graph decides which values are retrieved.
ANNS_BASE = {"n_candidates": 5}
#: CTS routed into one cluster of a fine clustering, so the reduction
#: and clustering knobs decide what is scanned; few UMAP epochs for speed.
CTS_BASE = {"top_clusters": 1, "per_cluster_candidates": 8, "umap_epochs": 30, "min_cluster_size": 5}
DIM = 32


def row(cls: type, name: str) -> Callable[[Callable[[], None]], Callable[[], None]]:
    def register(check: Callable[[], None]) -> Callable[[], None]:
        assert (cls, name) not in ROWS, (cls, name)
        ROWS[cls, name] = check
        return check

    return register


def parameters(cls: type) -> list[str]:
    return list(inspect.signature(cls).parameters)


@functools.cache
def corpus() -> tuple[Federation, tuple[str, ...], str, Relation]:
    """The federation, its queries, and one relation's revision."""
    generated = generate_wikitables_corpus(n_tables=20, n_queries=8, seed=0)
    federation = Federation(generated.name, [Dataset(generated.name, generated.relations)])
    relation_id, relation = next(iter(federation.relations()))
    revised = Relation(
        relation.name,
        relation.schema,
        [[f"{r.values[0]} revised {i}", *r.values[1:]] for i, r in enumerate(relation.rows)],
        caption=relation.caption,
    )
    return federation, tuple(generated.query_texts()), relation_id, revised


def make_engine(**kwargs: Any) -> DiscoveryEngine:
    kwargs.setdefault("encoder", SemanticHashEncoder(dim=DIM))
    kwargs.setdefault("executor", "inline")
    return DiscoveryEngine(**kwargs).index(corpus()[0])


def ranked(engine: DiscoveryEngine, method: str) -> list[list[tuple[str, float]]]:
    _, queries, _, _ = corpus()
    batch = engine.search_batch(list(queries), method=method, k=10, h=-1.0)
    return [[(m.relation_id, m.score) for m in result] for result in batch]


def method_run(method: str, params: dict[str, Any], dim: int = DIM, delta: bool = False):
    """``(answers, metrics snapshot)`` of one method, built with
    ``params``; ``delta`` revises one relation after the build."""
    return _method_run(method, json.dumps(params, sort_keys=True), dim, delta)


@functools.cache
def _method_run(method: str, params: str, dim: int, delta: bool):
    with make_engine(
        encoder=SemanticHashEncoder(dim=dim), method_params={method: json.loads(params)}
    ) as engine:
        engine.method(method)
        if delta:
            _, _, relation_id, revised = corpus()
            engine.update_relations({relation_id: revised})
        return ranked(engine, method), engine.metrics.snapshot()


def assert_answers_move(method: str, base: dict, name: str, a: Any, b: Any, **run: Any) -> None:
    first = method_run(method, {**base, name: a}, **run)[0]
    assert first != method_run(method, {**base, name: b}, **run)[0], (method, name, a, b)


def assert_metric_moves(
    method: str, base: dict, name: str, a: Any, b: Any, metric: str, **run: Any
) -> None:
    def read(value: Any) -> float:
        snapshot = method_run(method, {**base, name: value}, **run)[1]
        return {**snapshot["counters"], **snapshot["gauges"]}.get(metric, 0.0)

    assert read(a) != read(b), (method, name, metric)


# -- DiscoveryEngine -----------------------------------------------------------


@row(DiscoveryEngine, "encoder")
def engine_encoder():
    with make_engine() as a, make_engine(
        encoder=SemanticHashEncoder(dim=DIM, concept_weight=0.0)
    ) as b:
        assert ranked(a, "exs") != ranked(b, "exs")


@row(DiscoveryEngine, "dim")
def engine_dim():
    with make_engine(encoder=None, dim=32) as a, make_engine(encoder=None, dim=48) as b:
        assert ranked(a, "exs") != ranked(b, "exs")


@row(DiscoveryEngine, "method_params")
def engine_method_params():
    assert method_run("anns", {})[0] != method_run("anns", ANNS_BASE)[0]


@row(DiscoveryEngine, "shards")
def engine_shards():
    """Frozen ledger: bit-identical answers from every method, before
    and after a delta (``tests/test_sharding.py`` has the long form)."""
    _, _, relation_id, revised = corpus()
    params = {"cts": CTS_BASE}
    with make_engine(method_params=params) as a, make_engine(method_params=params, shards=3) as b:
        for method in ("exs", "anns", "cts"):
            assert ranked(a, method) == ranked(b, method)
        for engine in (a, b):
            engine.method("anns")  # built before the delta, so it absorbs it
            engine.update_relations({relation_id: revised})
        for method in ("exs", "anns"):
            assert ranked(a, method) == ranked(b, method)


@row(DiscoveryEngine, "executor")
def engine_executor():
    """Frozen ledger: the backend runs no search work."""
    with make_engine(executor="inline") as a, make_engine(executor="thread") as b:
        for method in ("exs", "anns"):
            assert ranked(a, method) == ranked(b, method)
        assert b.metrics.snapshot()["counters"].get("exec.thread.tasks", 0) == 0


@row(DiscoveryEngine, "sanitize")
def engine_sanitize():
    """A poisoned centroid matrix: the sanitized engine refuses to scan
    it, the plain one answers."""
    for sanitize in (False, True):
        with make_engine(sanitize=sanitize) as engine:
            engine.method("exs")._matrix[0, 0] = np.nan
            if sanitize:
                with pytest.raises(SanitizerError):
                    ranked(engine, "exs")
            else:
                assert ranked(engine, "exs")


@row(DiscoveryEngine, "query_cache")
def engine_query_cache():
    hits = []
    for query_cache in (False, True):
        with make_engine(query_cache=query_cache) as engine:
            assert ranked(engine, "exs") == ranked(engine, "exs")
            hits.append(engine.metrics.snapshot()["counters"].get("cache.hits", 0))
    assert hits[0] == 0 < hits[1]


# -- ExhaustiveSearch has no parameters; ANNSearch ---------------------------------


@row(ANNSearch, "n_candidates")
def anns_n_candidates():
    assert_answers_move("anns", ANNS_BASE, "n_candidates", 5, 50)


@row(ANNSearch, "index_kind")
def anns_index_kind():
    assert_answers_move("anns", ANNS_BASE, "index_kind", "hnsw+pq", "exact")


@row(ANNSearch, "n_subvectors")
def anns_n_subvectors():
    assert_metric_moves("anns", ANNS_BASE, "n_subvectors", 8, 4, "engine.index_bytes")


@row(ANNSearch, "n_centroids")
def anns_n_centroids():
    assert_metric_moves("anns", ANNS_BASE, "n_centroids", 256, 16, "engine.index_bytes")


@row(ANNSearch, "m")
def anns_m():
    assert_answers_move("anns", ANNS_BASE, "m", 16, 4)


@row(ANNSearch, "ef_construction")
def anns_ef_construction():
    assert_answers_move("anns", {**ANNS_BASE, "index_kind": "hnsw"}, "ef_construction", 100, 16)


@row(ANNSearch, "evidence_size")
def anns_evidence_size():
    assert_answers_move("anns", ANNS_BASE, "evidence_size", 8, 2)


@row(ANNSearch, "seed")
def anns_seed():
    assert_answers_move("anns", ANNS_BASE, "seed", 0, 1)


# -- ClusteredTargetedSearch -----------------------------------------------------


@row(ClusteredTargetedSearch, "top_clusters")
def cts_top_clusters():
    assert_answers_move("cts", CTS_BASE, "top_clusters", 1, 3)


@row(ClusteredTargetedSearch, "per_cluster_candidates")
def cts_per_cluster_candidates():
    assert_answers_move("cts", CTS_BASE, "per_cluster_candidates", 8, 64)


@row(ClusteredTargetedSearch, "umap_components")
def cts_umap_components():
    assert_answers_move("cts", CTS_BASE, "umap_components", 16, 4)


@row(ClusteredTargetedSearch, "umap_neighbors")
def cts_umap_neighbors():
    assert_answers_move("cts", CTS_BASE, "umap_neighbors", 15, 5)


@row(ClusteredTargetedSearch, "umap_epochs")
def cts_umap_epochs():
    assert_answers_move("cts", CTS_BASE, "umap_epochs", 30, 60)


@row(ClusteredTargetedSearch, "pca_components")
def cts_pca_components():
    # PCA runs only below the encoder's dimensionality.
    assert_answers_move("cts", CTS_BASE, "pca_components", 16, 0, dim=64)


@row(ClusteredTargetedSearch, "min_cluster_size")
def cts_min_cluster_size():
    assert_answers_move("cts", CTS_BASE, "min_cluster_size", 5, 10)


@row(ClusteredTargetedSearch, "min_samples")
def cts_min_samples():
    assert_answers_move("cts", CTS_BASE, "min_samples", None, 1)


@row(ClusteredTargetedSearch, "cluster_selection_method")
def cts_cluster_selection_method():
    assert_answers_move("cts", CTS_BASE, "cluster_selection_method", "leaf", "eom")


@row(ClusteredTargetedSearch, "evidence_size")
def cts_evidence_size():
    assert_answers_move("cts", CTS_BASE, "evidence_size", 16, 2)


@row(ClusteredTargetedSearch, "n_landmarks")
def cts_n_landmarks():
    """Landmarks place the values a delta brings in."""
    assert_metric_moves("cts", CTS_BASE, "n_landmarks", 256, 4, "cts.drift", delta=True)


@row(ClusteredTargetedSearch, "drift_threshold")
def cts_drift_threshold():
    assert_metric_moves("cts", CTS_BASE, "drift_threshold", 1e-9, 1e9, "cts.rebuilds", delta=True)


@row(ClusteredTargetedSearch, "seed")
def cts_seed():
    assert_answers_move("cts", CTS_BASE, "seed", 0, 1)


# -- ServingEngine ---------------------------------------------------------------


def serve(engine: DiscoveryEngine, stagger_s: float = 0.0, tenant: str = "default", **kwargs: Any):
    """Four ExS requests through a fresh serving front end: answers (or
    the admission error) and the engine's counters and gauges after it."""
    _, queries, _, _ = corpus()

    async def one(i: int, query: str):
        await asyncio.sleep(i * stagger_s)
        return await serving.submit(query, method="exs", k=10, h=-1.0, tenant=tenant)

    async def run():
        async with serving:
            return await asyncio.gather(
                *(one(i, q) for i, q in enumerate(queries[:4])), return_exceptions=True
            )

    serving = ServingEngine(engine, **kwargs)
    results = asyncio.run(run())
    answers = [
        r if isinstance(r, Exception) else [(m.relation_id, m.score) for m in r] for r in results
    ]
    snapshot = engine.metrics.snapshot()
    return answers, {**snapshot["counters"], **snapshot["gauges"]}


@row(ServingEngine, "engine")
def serving_engine():
    with make_engine() as a, make_engine(encoder=SemanticHashEncoder(dim=48)) as b:
        assert serve(a)[0] != serve(b)[0]


@row(ServingEngine, "window_ms")
def serving_window_ms():
    """Requests 20 ms apart share a 200 ms window; a 1 ms window has
    aged out before the next one arrives."""
    batches = []
    for window_ms in (200.0, 1.0):
        with make_engine() as engine:
            batches.append(serve(engine, stagger_s=0.02, window_ms=window_ms)[1]["serving.batches"])
    assert batches == [1, 4]


@row(ServingEngine, "max_batch")
def serving_max_batch():
    batches = []
    for max_batch in (32, 2):
        with make_engine() as engine:
            batches.append(serve(engine, window_ms=50.0, max_batch=max_batch)[1]["serving.batches"])
    assert batches == [1, 2]


@row(ServingEngine, "max_queue")
def serving_max_queue():
    with make_engine() as engine:
        answers, metrics = serve(engine, max_queue=1)
    assert any(isinstance(a, QueueFull) for a in answers)
    assert metrics["serving.rejected"] > 0
    with make_engine() as engine:
        assert serve(engine)[1].get("serving.rejected", 0) == 0


@row(ServingEngine, "dispatch_workers")
def serving_dispatch_workers():
    sizes = []
    for workers in (1, 2):
        with make_engine() as engine:
            sizes.append(serve(engine, dispatch_workers=workers)[1]["exec.thread.pool_size"])
    assert sizes == [1, 2]


@row(ServingEngine, "executor")
def serving_executor():
    """An injected backend runs the windows instead of serving's own
    thread pool."""
    with make_engine() as engine:
        assert serve(engine)[1]["exec.thread.tasks"] > 0
    with make_engine() as engine:
        injected = InlineBackend(metrics=MetricsRegistry())
        assert serve(engine, executor=injected)[1].get("exec.thread.tasks", 0) == 0
        assert injected.metrics.snapshot()["counters"]["exec.inline.tasks"] > 0


@row(ServingEngine, "default_limit")
def serving_default_limit():
    with make_engine() as engine:
        answers, metrics = serve(engine, default_limit=RateLimit(rate=0.001, burst=1))
    assert any(isinstance(a, RateLimited) for a in answers)
    assert metrics["serving.throttled"] > 0
    with make_engine() as engine:
        assert serve(engine)[1].get("serving.throttled", 0) == 0


@row(ServingEngine, "tenant_limits")
def serving_tenant_limits():
    limits = {"metered": RateLimit(rate=0.001, burst=1)}
    with make_engine() as engine:
        metrics = serve(engine, tenant="metered", tenant_limits=limits)[1]
    assert metrics["serving.tenant.metered.throttled"] > 0
    with make_engine() as engine:
        metrics = serve(engine, tenant="metered")[1]
    assert metrics.get("serving.tenant.metered.throttled", 0) == 0


# -- the table is complete (after every row has registered) -------------------


def test_every_parameter_has_a_row():
    missing = [(cls.__name__, p) for cls in CLASSES for p in parameters(cls) if (cls, p) not in ROWS]
    assert not missing, f"parameters without a knob-table row: {missing}"
    stale = [(cls.__name__, p) for cls, p in ROWS if p not in parameters(cls)]
    assert not stale, f"rows for parameters that no longer exist: {stale}"


def test_only_the_frozen_ledger_keeps_dead_knobs():
    assert set(FROZEN_LEDGER) == {(DiscoveryEngine, "shards"), (DiscoveryEngine, "executor")}
    assert set(FROZEN_LEDGER) <= set(ROWS)


def test_exhaustive_search_has_no_knobs():
    assert parameters(ExhaustiveSearch) == []


@pytest.mark.parametrize(
    "key", list(ROWS), ids=[f"{cls.__name__}.{name}" for cls, name in ROWS]
)
def test_row(key):
    ROWS[key]()


@pytest.mark.parametrize(
    ("cls", "keyword"),
    [(DiscoveryEngine, "dtype"), (ExhaustiveSearch, "dtype"), (ANNSearch, "dtype"),
     (ANNSearch, "ef_search")],
)
def test_deleted_knobs_raise(cls, keyword):
    with pytest.raises(TypeError):
        cls(**{keyword: 1})
