"""Micro-benchmark: sequential vs batched vs multi-worker serving.

Not a paper artifact — this measures the serving layer the reproduction
adds on top of the paper's algorithms: ``search_batch`` amortizes query
encoding, locking and dispatch over one row-wise ExS scan of the whole
query block, and ``workers=4`` is accepted (an ExS scan is one kernel
call, so there is nothing to spread).

Run with ``pytest benchmarks/test_batch_throughput.py --benchmark-only``
for queries/sec numbers; the plain assertion test guards the speedup
over Algorithm 1's per-attribute loop.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import DiscoveryEngine
from repro.data.wikitables import generate_wikitables_corpus

from _algorithm1 import Algorithm1Search

N_TABLES = 80
DIM = 128
N_QUERIES = 32
K = 20


@pytest.fixture(scope="module")
def batch_corpus():
    return generate_wikitables_corpus(n_tables=N_TABLES)


@pytest.fixture(scope="module")
def batch_engine(batch_corpus):
    engine = DiscoveryEngine(dim=DIM)
    engine.index(batch_corpus.federation())
    return engine


@pytest.fixture(scope="module")
def batch_queries(batch_corpus, batch_engine):
    queries = batch_corpus.query_texts()[:N_QUERIES]
    assert len(queries) >= 8, "bench corpus produced too few queries"
    # Warm the encoder cache out-of-band so every variant below measures
    # scan work, not first-touch hashing.
    batch_engine.search_batch(queries, method="exs", k=K)
    return queries


def _sequential(engine, queries):
    return [engine.search(q, method="exs", k=K) for q in queries]


def test_throughput_sequential(benchmark, batch_engine, batch_queries):
    results = benchmark(lambda: _sequential(batch_engine, batch_queries))
    assert len(results) == len(batch_queries)


def test_throughput_batched(benchmark, batch_engine, batch_queries):
    results = benchmark(
        lambda: batch_engine.search_batch(batch_queries, method="exs", k=K)
    )
    assert len(results) == len(batch_queries)


def test_throughput_batched_workers4(benchmark, batch_engine, batch_queries):
    results = benchmark(
        lambda: batch_engine.search_batch(batch_queries, method="exs", k=K, workers=4)
    )
    assert len(results) == len(batch_queries)


def test_batched_exs_is_faster_than_sequential(batch_engine, batch_queries):
    """The acceptance guard: the batched ExS path beats one-at-a-time.

    Sequential ExS is Algorithm 1's per-attribute loop
    (``benchmarks/_algorithm1.py``); the batched path scores the whole
    query block against every relation's centroid in one row-wise
    kernel call.  The margin demanded here (>= 2x) is far below the
    typical one (>= 10x) so timing noise on loaded CI machines cannot
    flip it.
    """
    loop = Algorithm1Search(batch_engine.method("exs").embeddings)
    start = time.perf_counter()
    sequential = [loop.search(q, k=K) for q in batch_queries]
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = batch_engine.search_batch(batch_queries, method="exs", k=K)
    batched_s = time.perf_counter() - start

    for seq, bat in zip(sequential, batched):
        assert seq.relation_ids() == bat.relation_ids()

    speedup = sequential_s / max(batched_s, 1e-9)
    print(
        f"\nExS serving: sequential {sequential_s * 1e3:.1f} ms, "
        f"batched {batched_s * 1e3:.1f} ms, speedup {speedup:.1f}x, "
        f"batched throughput {batched.queries_per_second:.0f} q/s"
    )
    assert speedup >= 2.0, f"batched ExS only {speedup:.2f}x faster"


def test_batched_exs_scores_equal_single_queries(batch_engine, batch_queries):
    """A single query is a batch of one through the same row-wise
    centroid kernel, so ``search`` and ``search_batch`` agree bit for bit."""
    batched = batch_engine.search_batch(batch_queries, method="exs", k=K)
    for query, bat in zip(batch_queries, batched):
        seq = batch_engine.search(query, method="exs", k=K)
        assert [(m.relation_id, m.score) for m in seq.matches] == [
            (m.relation_id, m.score) for m in bat.matches
        ]


def test_metrics_snapshot_after_bench(batch_engine, batch_queries):
    """The per-stage table benchmarks share with serving code."""
    batch_engine.search_batch(batch_queries, method="exs", k=K)
    snap = batch_engine.metrics.snapshot()
    assert snap["counters"]["engine.queries"] >= len(batch_queries)
    assert snap["stages"]["exs.scan"]["p95_ms"] >= snap["stages"]["exs.scan"]["p50_ms"]
    print("\n" + batch_engine.metrics.format_table())
