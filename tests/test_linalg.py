"""Unit and property tests for repro.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import DiscoveryEngine
from repro.core.semimg import RelationEmbedding, relation_centroids
from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.linalg import (
    KMeans,
    Metric,
    cosine_similarity,
    euclidean_distance,
    gemm_candidates,
    normalize_rows,
    pairwise_distance,
    pairwise_similarity,
    rowwise_scores,
    similarity,
    top_k_indices,
    top_k_indices_rowwise,
    top_k_mask,
)

finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.just(4)),
    elements=st.floats(-10, 10, allow_nan=False),
)

#: Four distinct values over up to 40 slots: nearly every k-th place is
#: inside a tie, which is where a bare ``argpartition`` picks arbitrarily.
tie_heavy_rows = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(2, 40)),
    elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
)


def sorted_reference(scores, k, largest):
    """The documented contract, by a full sort: ``(-score, index)``."""
    sign = -1.0 if largest else 1.0
    return sorted(range(len(scores)), key=lambda i: (sign * scores[i], i))[:k]


class TestNormalizeRows:
    def test_unit_norms(self, rng):
        m = normalize_rows(rng.standard_normal((5, 8)))
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0)

    def test_zero_row_unchanged(self):
        m = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(m[0], [0.0, 0.0])
        np.testing.assert_allclose(m[1], [0.6, 0.8])

    def test_1d_input(self):
        v = normalize_rows(np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [0.6, 0.8])


class TestSimilarities:
    def test_cosine_self_similarity(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(np.diag(cosine_similarity(x, x)), 1.0)

    def test_cosine_bounded(self, rng):
        a, b = rng.standard_normal((5, 6)), rng.standard_normal((7, 6))
        c = cosine_similarity(a, b)
        assert np.all(c <= 1 + 1e-12) and np.all(c >= -1 - 1e-12)

    def test_euclidean_matches_numpy(self, rng):
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((4, 5))
        d = euclidean_distance(a, b)
        for i in range(3):
            for j in range(4):
                assert d[i, j] == pytest.approx(np.linalg.norm(a[i] - b[j]))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity(rng.standard_normal((2, 3)), rng.standard_normal((2, 4)))

    def test_similarity_scalar(self):
        assert similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_similarity_rejects_matrices(self, rng):
        with pytest.raises(DimensionMismatchError):
            similarity(rng.standard_normal((2, 2)), rng.standard_normal(2))

    @pytest.mark.parametrize("metric", list(Metric))
    def test_pairwise_similarity_shape(self, metric, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        assert pairwise_similarity(a, b, metric).shape == (3, 5)

    def test_euclidean_similarity_is_negated_distance(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            pairwise_similarity(a, b, Metric.EUCLIDEAN),
            -euclidean_distance(a, b),
        )

    @given(finite_rows)
    @settings(max_examples=30)
    def test_distance_symmetry(self, x):
        # the expanded ||x||^2+||y||^2-2xy form cancels catastrophically
        # near zero, so tolerances reflect sqrt(float-eps) noise
        d = pairwise_distance(x, x, Metric.EUCLIDEAN)
        np.testing.assert_allclose(d, d.T, atol=1e-6)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-6)

    @property
    def higher_is_better(self):
        return None

    def test_metric_flags(self):
        assert Metric.COSINE.higher_is_better
        assert Metric.DOT.higher_is_better
        assert not Metric.EUCLIDEAN.higher_is_better


class TestTopK:
    def test_best_first(self):
        scores = np.array([0.1, 0.9, 0.5])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 2])

    def test_smallest(self):
        scores = np.array([0.1, 0.9, 0.5])
        np.testing.assert_array_equal(top_k_indices(scores, 2, largest=False), [0, 2])

    def test_k_clamped(self):
        assert len(top_k_indices(np.array([1.0, 2.0]), 10)) == 2

    def test_k_zero(self):
        assert len(top_k_indices(np.array([1.0]), 0)) == 0

    def test_tie_break_by_index(self):
        scores = np.array([0.5, 0.5, 0.5])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [0, 1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 2)), 1)

    @given(
        arrays(np.float64, st.integers(1, 30), elements=st.floats(-100, 100, allow_nan=False)),
        st.integers(1, 10),
    )
    def test_matches_argsort(self, scores, k):
        got = top_k_indices(scores, k)
        expected_scores = np.sort(scores)[::-1][: min(k, len(scores))]
        np.testing.assert_allclose(scores[got], expected_scores)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_rows, st.sampled_from(["one", "n-1", "n", "n+3"]), st.booleans())
    def test_boundary_ties_match_sorted_reference(self, scores, which, largest):
        """A tie straddling the k-th place resolves by index, 1-D and
        row-wise alike — the selection must be tie-inclusive."""
        n = scores.shape[1]
        k = {"one": 1, "n-1": n - 1, "n": n, "n+3": n + 3}[which]
        rowwise = top_k_indices_rowwise(scores, k, largest=largest)
        assert rowwise.shape == (scores.shape[0], min(k, n))
        for row, got in zip(scores, rowwise):
            want = sorted_reference(row, k, largest)
            assert got.tolist() == want
            assert top_k_indices(row, k, largest=largest).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_rows, st.integers(0, 45), st.booleans())
    def test_mask_is_tie_inclusive(self, scores, k, largest):
        """The mask keeps exactly the entries at least as good as the
        k-th best: the top-k by any tie-break order lies inside it."""
        mask = top_k_mask(scores, k, largest=largest)
        for row, kept in zip(scores, mask):
            want = sorted_reference(row, k, largest)
            assert set(want) <= set(np.flatnonzero(kept).tolist())
            worst = row[want[-1]] if want else None
            for i in np.flatnonzero(kept):
                assert row[i] >= worst if largest else row[i] <= worst

    def test_nan_ranks_last(self):
        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [2, 4])
        np.testing.assert_array_equal(top_k_indices(scores, 4), [2, 4, 0, 1])
        np.testing.assert_array_equal(top_k_indices(scores, 4, largest=False), [0, 4, 2, 1])
        rowwise = top_k_indices_rowwise(np.stack([scores, scores[::-1]]), 4)
        np.testing.assert_array_equal(rowwise, [[2, 4, 0, 1], [2, 0, 4, 1]])


class TestExSScanKernels:
    """The ExS-mean scan is exact by construction: a relation's score is
    its own centroid's row-wise dot product with the query, so no batch,
    shard layout or delta history can move its bits."""

    @pytest.mark.parametrize("n_queries", [1, 16])
    @pytest.mark.parametrize("dim", [48, 61])
    def test_rowwise_bits_ignore_position_address_and_height(self, rng, dim, n_queries):
        row = rng.standard_normal(dim)
        queries = rng.standard_normal((n_queries, dim)).astype(np.float32)
        # Each query alone against the row alone: the bits every layout must give.
        want = np.array(
            [rowwise_scores(row[np.newaxis, :], queries[j : j + 1])[0, 0] for j in range(n_queries)]
        )
        for height in (1, 2, 3, 7, 33, 64):
            for offset in range(4):  # shifts the matrix's address by 8-byte steps
                buffer = np.empty(height * dim + 4)
                matrix = buffer[offset : offset + height * dim].reshape(height, dim)
                matrix[:] = rng.standard_normal((height, dim))
                for position in range(height):
                    saved = matrix[position].copy()
                    matrix[position] = row
                    got = rowwise_scores(matrix, queries)[position]
                    assert np.array_equal(got, want), (height, offset, position)
                    matrix[position] = saved

    def test_relation_centroids_are_per_relation(self, rng):
        """A centroid computed over the whole federation has the bits of
        the same relation's centroid computed alone — and of its float64
        copy (what a retired float64 snapshot held)."""
        relations = []
        for i in range(40):
            n = int(rng.integers(1, 30))
            relations.append(
                RelationEmbedding(
                    relation_id=f"r{i}",
                    values=tuple(f"v{j}" for j in range(n)),
                    attr_names=("A",) * n,
                    vectors=normalize_rows(rng.standard_normal((n, 48))).astype(np.float32),
                    counts=rng.integers(1, 6, size=n),
                )
            )
        together = relation_centroids(relations)
        assert together.shape == (40, 48) and together.dtype == np.float64
        for i, relation in enumerate(relations):
            alone = relation_centroids([relation])[0]
            assert np.array_equal(together[i], alone)
            widened = RelationEmbedding(
                relation.relation_id,
                relation.values,
                relation.attr_names,
                relation.vectors.astype(np.float64),
                relation.counts,
            )
            assert np.array_equal(relation_centroids([widened])[0], alone)
            weighted = np.average(widened.vectors, axis=0, weights=relation.counts)
            np.testing.assert_allclose(alone, weighted, atol=1e-15)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_search_is_a_batch_of_one(self, tiny_federation, shards):
        queries = ["vaccination europe", "football league", "gdp growth", "covid"]
        with DiscoveryEngine(dim=48, shards=shards, executor="inline") as engine:
            engine.index(tiny_federation)
            batch = engine.search_batch(queries, method="exs", k=10, h=-1.0)
            for query, in_batch in zip(queries, batch):
                alone = engine.search(query, method="exs", k=10, h=-1.0)
                assert [(m.relation_id, m.score) for m in alone.matches] == [
                    (m.relation_id, m.score) for m in in_batch.matches
                ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 45),
        st.sampled_from([-10.0, 0.0, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_gemm_candidates_cover_every_true_winner(self, n_rows, k, h, seed):
        """Every pair in a query's exact top-k at or above ``h`` — ties
        with twin rows and NaN rows included — is a candidate, and the
        pairs come back query-major."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, 7))
        rows[rng.integers(0, n_rows, size=n_rows // 2)] = rows[0]  # twins of row 0
        if n_rows > 2:
            rows[1] = np.nan
        queries = rng.standard_normal((3, 7)).astype(np.float32)
        max_norm = float(np.nanmax(np.linalg.norm(rows, axis=1)))
        query_idx, row_idx = gemm_candidates(rows, queries, k, h, max_norm)
        assert np.all(np.diff(query_idx) >= 0)
        found = set(zip(query_idx.tolist(), row_idx.tolist()))
        exact = rowwise_scores(rows, queries)
        for q in range(queries.shape[0]):
            for r in top_k_indices(exact[:, q], k).tolist():
                if exact[r, q] >= h:
                    assert (q, r) in found


class TestKMeans:
    def test_separated_clusters_recovered(self, rng):
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        points = np.vstack([c + rng.standard_normal((30, 2)) * 0.5 for c in centers])
        km = KMeans(n_clusters=3, seed=1).fit(points)
        labels = km.labels_
        # each block of 30 should be a single cluster
        for start in (0, 30, 60):
            assert len(set(labels[start : start + 30].tolist())) == 1

    def test_predict_matches_fit_labels(self, rng):
        points = rng.standard_normal((50, 3))
        km = KMeans(n_clusters=4).fit(points)
        np.testing.assert_array_equal(km.predict(points), km.labels_)

    def test_predict_single_point(self, rng):
        km = KMeans(n_clusters=2).fit(rng.standard_normal((10, 3)))
        assert km.predict(rng.standard_normal(3)) in (0, 1)

    def test_more_clusters_than_points(self):
        points = np.array([[0.0], [1.0], [2.0]])
        km = KMeans(n_clusters=10).fit(points)
        assert km.centroids_.shape[0] == 3

    def test_duplicate_points(self):
        points = np.ones((20, 2))
        km = KMeans(n_clusters=3, seed=0).fit(points)
        assert km.inertia_ == pytest.approx(0.0)

    def test_deterministic_given_seed(self, rng):
        points = rng.standard_normal((40, 4))
        a = KMeans(n_clusters=3, seed=5).fit(points)
        b = KMeans(n_clusters=3, seed=5).fit(points)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KMeans(n_clusters=2).predict(np.zeros((1, 2)))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            KMeans(n_clusters=0)
        with pytest.raises(ConfigurationError):
            KMeans(n_clusters=2, max_iter=0)
        with pytest.raises(ConfigurationError):
            KMeans(n_clusters=2).fit(np.zeros((0, 2)))

    def test_inertia_decreases_with_k(self, rng):
        points = rng.standard_normal((60, 2))
        inertias = [KMeans(n_clusters=k, seed=0).fit(points).inertia_ for k in (1, 4, 16)]
        assert inertias[0] >= inertias[1] >= inertias[2]
