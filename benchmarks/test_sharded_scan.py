"""Micro-benchmark: sharded scatter-gather ExS vs the single shard.

Not a paper artifact — this measures the scale-out layer: with
``DiscoveryEngine(shards=N)`` each shard scans its slice of the
federation on its own pool thread (``workers=N``), and the gather is an
exact merge, so throughput should scale with cores while rankings stay
identical to the monolithic engine.

The engines run ExS with ``aggregate="max_mean"``, whose scan is a GEMM
over every value vector plus a segmented reduction — work worth
spreading.  Under the default ``mean`` a whole shard is a handful of
centroid rows scored in one row-wise kernel call, so there is nothing
left for extra shards to parallelise.

Run with ``pytest benchmarks/test_sharded_scan.py --benchmark-only``
for queries/sec per shard count; the plain assertion test guards the
4-shard speedup (and skips on boxes with fewer than 4 cores, where the
pool has nothing to scale onto).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.engine import DiscoveryEngine
from repro.data.wikitables import generate_wikitables_corpus
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder

N_TABLES = 64
DIM = 256
N_QUERIES = 24
K = 20
SHARD_COUNTS = (1, 2, 4, 8)

#: One encoder shared by every engine below: each shard count re-indexes
#: the same federation, and the cache makes every re-embed a hit, so the
#: benchmarks time scan work rather than hashing.
_ENCODER = CachingEncoder(SemanticHashEncoder(dim=DIM), max_size=2_000_000)


@pytest.fixture(scope="module")
def shard_corpus():
    return generate_wikitables_corpus(n_tables=N_TABLES)


@pytest.fixture(scope="module")
def shard_engines(shard_corpus):
    federation = shard_corpus.federation()
    engines = {}
    for shards in SHARD_COUNTS:
        engine = DiscoveryEngine(
            encoder=_ENCODER,
            shards=shards,
            method_params={"exs": {"aggregate": "max_mean"}},
        )
        engine.index(federation)
        engine.method("exs")
        engines[shards] = engine
    return engines


@pytest.fixture(scope="module")
def shard_queries(shard_corpus, shard_engines):
    queries = shard_corpus.query_texts()[:N_QUERIES]
    assert len(queries) >= 8, "bench corpus produced too few queries"
    # Warm the shared encoder cache so every variant measures scan work.
    shard_engines[1].search_batch(queries, method="exs", k=K)
    return queries


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_exs_throughput(benchmark, shard_engines, shard_queries, shards):
    engine = shard_engines[shards]
    results = benchmark(
        lambda: engine.search_batch(
            shard_queries, method="exs", k=K, workers=max(shards, 1)
        )
    )
    assert len(results) == len(shard_queries)


def test_sharded_scan_beats_single_shard(shard_engines, shard_queries):
    """The acceptance guard: 4 shards on 4 workers >= 2x one shard.

    Each shard's ``max_mean`` scan is an independent GEMM over its own
    value vectors on its own pool thread (NumPy releases the GIL), so
    with >= 4 cores the scatter phase runs 4-wide and the exact merge
    adds microseconds.  On
    smaller boxes the pool is oversubscribed and the margin is noise,
    hence the skip.
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for the 4-shard pool to scale")

    single, sharded = shard_engines[1], shard_engines[4]
    # Warm both paths (thread-pool spin-up, lazy builds) out-of-band.
    single.search_batch(shard_queries, method="exs", k=K)
    sharded.search_batch(shard_queries, method="exs", k=K, workers=4)

    rounds = 5
    start = time.perf_counter()
    for _ in range(rounds):
        base = single.search_batch(shard_queries, method="exs", k=K)
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        scattered = sharded.search_batch(shard_queries, method="exs", k=K, workers=4)
    sharded_s = time.perf_counter() - start

    for a, b in zip(base, scattered):
        assert a.relation_ids() == b.relation_ids()

    speedup = single_s / max(sharded_s, 1e-9)
    print(
        f"\nExS scan: 1 shard {single_s * 1e3:.1f} ms, "
        f"4 shards x 4 workers {sharded_s * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, f"4-shard scatter only {speedup:.2f}x faster"


def test_sharded_metrics_after_bench(shard_engines, shard_queries):
    """Per-shard stage timers and the merge stage are populated."""
    engine = shard_engines[4]
    engine.search_batch(shard_queries, method="exs", k=K, workers=4)
    snap = engine.metrics.snapshot()
    shard_scans = [
        name
        for name in snap["stages"]
        if name.startswith("exs.shard") and name.endswith(".scan")
    ]
    assert shard_scans, "sharded engine recorded no per-shard scan timers"
    assert "exs.merge" in snap["stages"]
    sizes = [
        value
        for name, value in snap["gauges"].items()
        if name.startswith("engine.shard_sizes.")
    ]
    assert sum(sizes) == N_TABLES
