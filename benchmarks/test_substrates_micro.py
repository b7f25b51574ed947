"""Micro-benchmarks of the substrate components.

These use pytest-benchmark's statistical timing (multiple rounds) to
characterize the from-scratch building blocks: encoder throughput,
HNSW search, PQ encoding/ADC, UMAP and HDBSCAN fits, vector-DB search.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, ProductQuantizer
from repro.clustering import HDBSCAN
from repro.dimred import UMAP
from repro.embedding import SemanticHashEncoder
from repro.vectordb import Collection


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(0).standard_normal((2000, 64))


@pytest.fixture(scope="module")
def hnsw(vectors):
    return HNSWIndex(m=8, ef_construction=60, ef_search=64, seed=0).build(vectors)


def test_bench_encoder_throughput(benchmark):
    encoder = SemanticHashEncoder(dim=128)
    texts = [f"vaccination campaign {i} in europe during 2021" for i in range(200)]
    encoder.encode(texts)  # warm the token cache

    result = benchmark(encoder.encode, texts)
    assert result.shape == (200, 128)


def test_bench_hnsw_search(benchmark, vectors, hnsw):
    query = np.random.default_rng(1).standard_normal(64)
    hits = benchmark(hnsw.search, query, 10)
    assert len(hits) == 10


def test_bench_bruteforce_search(benchmark, vectors):
    index = BruteForceIndex().build(vectors)
    query = np.random.default_rng(1).standard_normal(64)
    hits = benchmark(index.search, query, 10)
    assert len(hits) == 10


def test_bench_pq_encode(benchmark, vectors):
    pq = ProductQuantizer(n_subvectors=8, n_centroids=64).fit(vectors[:500])
    codes = benchmark(pq.encode, vectors)
    assert codes.shape == (2000, 8)


def test_bench_pq_adc_scan(benchmark, vectors):
    pq = ProductQuantizer(n_subvectors=8, n_centroids=64).fit(vectors[:500])
    codes = pq.encode(vectors)
    query = vectors[0]

    def adc():
        table = pq.adc_inner_product_tables(query[np.newaxis, :])[0]
        return pq.adc_scores(table, codes)

    scores = benchmark(adc)
    assert scores.shape == (2000,)


def test_bench_umap_fit(benchmark):
    points = np.random.default_rng(2).standard_normal((400, 32))

    def fit():
        return UMAP(n_components=8, n_neighbors=10, n_epochs=30, seed=0).fit_transform(points)

    embedding = benchmark.pedantic(fit, rounds=2, iterations=1)
    assert embedding.shape == (400, 8)


def test_bench_hdbscan_fit(benchmark):
    rng = np.random.default_rng(3)
    points = np.vstack([c + rng.standard_normal((120, 8)) for c in rng.standard_normal((4, 8)) * 8])

    def fit():
        return HDBSCAN(min_cluster_size=15).fit_predict(points)

    labels = benchmark.pedantic(fit, rounds=2, iterations=1)
    assert labels.shape == (480,)


def test_bench_vectordb_indexed_search(benchmark, vectors):
    collection = Collection("bench", vectors)
    collection.create_index("hnsw", m=8, ef_construction=60)
    query = np.random.default_rng(4).standard_normal((1, 64))
    rows, _ = benchmark(collection.search_rows, query, 10)[0]
    assert len(rows) == 10
