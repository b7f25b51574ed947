"""Tests for the ANN substrate: brute force, HNSW, PQ."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, HNSWIndex, ProductQuantizer
from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    EmptyIndexError,
    NotFittedError,
)
from repro.linalg.distances import Metric


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).standard_normal((400, 16))


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(8).standard_normal((10, 16))


def recall(hits, truth):
    got = {h.index for h in hits}
    want = {h.index for h in truth}
    return len(got & want) / len(want)


class TestBruteForce:
    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.EUCLIDEAN])
    def test_top1_is_self(self, points, metric):
        # (not true for dot product, where longer vectors can win)
        index = BruteForceIndex(metric=metric).build(points)
        assert index.search(points[5], 1)[0].index == 5

    def test_dot_metric_prefers_longer_vectors(self, points):
        index = BruteForceIndex(metric=Metric.DOT).build(points)
        q = points[5]
        top = index.search(q, 1)[0]
        assert top.score >= float(q @ q) - 1e-9

    def test_scores_descending(self, points, queries):
        index = BruteForceIndex().build(points)
        hits = index.search(queries[0], 10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_search_batch_matches_single(self, points, queries):
        index = BruteForceIndex().build(points)
        batched = index.search_rows(queries[:3], 5)
        for q, (rows, _) in zip(queries[:3], batched):
            assert rows.tolist() == [h.index for h in index.search(q, 5)]

    def test_empty_index(self):
        with pytest.raises(EmptyIndexError):
            BruteForceIndex().build(np.empty((0, 4))).search(np.zeros(4), 1)

    def test_dim_mismatch(self, points):
        index = BruteForceIndex().build(points)
        with pytest.raises(DimensionMismatchError):
            index.search(np.zeros(3), 1)


class TestHNSW:
    def test_high_recall_vs_exact(self, points, queries):
        exact = BruteForceIndex().build(points)
        hnsw = HNSWIndex(m=8, ef_construction=80, ef_search=80, seed=0).build(points)
        recalls = [
            recall(hnsw.search(q, 10), exact.search(q, 10)) for q in queries
        ]
        assert float(np.mean(recalls)) >= 0.85

    def test_euclidean_metric(self, points):
        hnsw = HNSWIndex(metric=Metric.EUCLIDEAN, m=8, ef_construction=40).build(points)
        top = hnsw.search(points[3], 1)[0]
        assert top.index == 3
        assert top.score == pytest.approx(0.0, abs=1e-9)

    def test_incremental_add(self, points):
        hnsw = HNSWIndex(m=8, ef_construction=40, seed=1).build(points[:200])
        hnsw.add(points[200:])
        assert hnsw.size == 400
        assert hnsw.search(points[300], 1)[0].index == 300

    def test_add_to_empty_builds(self, points):
        hnsw = HNSWIndex(m=8, ef_construction=40)
        hnsw.add(points[:50])
        assert hnsw.size == 50

    def test_add_dim_mismatch(self, points):
        hnsw = HNSWIndex(m=8, ef_construction=40).build(points)
        with pytest.raises(ConfigurationError):
            hnsw.add(np.zeros((1, 3)))

    def test_deterministic(self, points, queries):
        a = HNSWIndex(m=8, ef_construction=40, seed=3).build(points)
        b = HNSWIndex(m=8, ef_construction=40, seed=3).build(points)
        for q in queries[:3]:
            assert [h.index for h in a.search(q, 5)] == [h.index for h in b.search(q, 5)]

    def test_duplicate_points_searchable(self):
        # duplicates must not fragment the graph
        base = np.random.default_rng(0).standard_normal((20, 8))
        dup = np.vstack([base, base, base])
        hnsw = HNSWIndex(m=4, ef_construction=20, ef_search=70).build(dup)
        hits = hnsw.search(base[0], 60)
        assert len(hits) >= 30

    def test_ef_override(self, points, queries):
        hnsw = HNSWIndex(m=8, ef_construction=60, ef_search=4).build(points)
        few = hnsw.search(queries[0], 10, ef=10)
        many = hnsw.search(queries[0], 10, ef=200)
        assert len(few) == len(many) == 10

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            HNSWIndex(m=1)
        with pytest.raises(ConfigurationError):
            HNSWIndex(m=8, ef_construction=4)
        with pytest.raises(ConfigurationError):
            HNSWIndex(ef_search=0)


class TestProductQuantizer:
    def test_roundtrip_reduces_error_vs_random(self, points):
        pq = ProductQuantizer(n_subvectors=4, n_centroids=32).fit(points)
        codes = pq.encode(points)
        recon = pq.decode(codes)
        err = np.linalg.norm(points - recon)
        rand_err = np.linalg.norm(points - np.roll(points, 1, axis=0))
        assert err < rand_err

    def test_codes_shape_and_dtype(self, points):
        pq = ProductQuantizer(n_subvectors=8, n_centroids=16).fit(points)
        codes = pq.encode(points[:10])
        assert codes.shape == (10, 8)
        assert codes.dtype == np.uint8

    def test_adc_matches_decoded_inner_product(self, points):
        pq = ProductQuantizer(n_subvectors=4, n_centroids=16).fit(points)
        codes = pq.encode(points[:20])
        q = points[0]
        table = pq.adc_inner_product_tables(q[np.newaxis, :])[0]
        adc = pq.adc_scores(table, codes)
        exact = pq.decode(codes) @ q
        np.testing.assert_allclose(adc, exact, atol=1e-9)

    def test_adc_l2_matches_decoded(self, points):
        pq = ProductQuantizer(n_subvectors=4, n_centroids=16).fit(points)
        codes = pq.encode(points[:20])
        q = points[1]
        table = pq.adc_l2_tables(q[np.newaxis, :])[0]
        adc = pq.adc_scores(table, codes)
        exact = np.sum((pq.decode(codes) - q) ** 2, axis=1)
        np.testing.assert_allclose(adc, exact, atol=1e-9)

    def test_dim_not_divisible(self, points):
        with pytest.raises(ConfigurationError):
            ProductQuantizer(n_subvectors=5).fit(points)  # 16 % 5 != 0

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            ProductQuantizer().encode(np.zeros((1, 16)))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ProductQuantizer(n_subvectors=0)
        with pytest.raises(ConfigurationError):
            ProductQuantizer(n_centroids=1000)


@given(st.integers(2, 40), st.integers(1, 10))
@settings(max_examples=15, deadline=None)
def test_hnsw_returns_k_unique(n, k):
    pts = np.random.default_rng(n).standard_normal((n, 4))
    hnsw = HNSWIndex(m=4, ef_construction=16, ef_search=max(16, k)).build(pts)
    hits = hnsw.search(pts[0], k)
    ids = [h.index for h in hits]
    assert len(ids) == len(set(ids)) <= min(k, n)
