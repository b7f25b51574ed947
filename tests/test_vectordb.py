"""Tests for the vector collection: storage, upsert/delete and search_rows."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, PointNotFoundError
from repro.vectordb import Collection, Point


@pytest.fixture()
def collection(rng):
    col = Collection("test", dim=8)
    points = [
        Point(i, rng.standard_normal(8), {"group": "even" if i % 2 == 0 else "odd", "rank": i})
        for i in range(50)
    ]
    col.upsert(points)
    return col


def ids_of(collection, query, k):
    """The ``rank`` payloads (the point ids) of one query's top-k rows."""
    rows, _ = collection.search_rows(np.asarray(query)[np.newaxis, :], k)[0]
    return [payload["rank"] for payload in collection.payloads_at(rows)]


class TestCollection:
    def test_len_and_contains(self, collection):
        assert len(collection) == 50
        assert 7 in collection and 99 not in collection

    def test_get_roundtrip(self, collection):
        point = collection.get(3)
        assert point.id == 3
        assert point.payload["rank"] == 3

    def test_get_missing(self, collection):
        with pytest.raises(PointNotFoundError):
            collection.get(999)

    def test_upsert_overwrites(self, collection, rng):
        new_vec = rng.standard_normal(8)
        collection.upsert([Point(3, new_vec, {"fresh": True})])
        assert len(collection) == 50
        got = collection.get(3)
        np.testing.assert_allclose(got.vector, new_vec)
        assert got.payload == {"fresh": True}

    def test_upsert_dim_mismatch(self, collection):
        with pytest.raises(DimensionMismatchError):
            collection.upsert([Point(100, np.zeros(5))])

    def test_delete(self, collection):
        assert collection.delete([0, 1, 999]) == 2
        assert len(collection) == 48
        assert 0 not in collection
        # remaining ids still resolvable
        assert collection.get(2).id == 2

    def test_search_exact_top1(self, collection):
        target = collection.get(10).vector
        assert ids_of(collection, target, 1) == [10]

    def test_query_dim_check(self, collection):
        with pytest.raises(DimensionMismatchError):
            collection.search_rows(np.zeros((1, 3)), 1)

    def test_empty_collection_search(self):
        found = Collection("empty", dim=4).search_rows(np.zeros((2, 4)), 3)
        assert [rows.tolist() for rows, _ in found] == [[], []]

    @pytest.mark.parametrize("kind", ["hnsw", "hnsw+pq", "exact"])
    def test_indexed_search_contains_true_top1(self, collection, kind, rng):
        params = {}
        if kind in ("hnsw", "hnsw+pq"):
            params.update(m=4, ef_construction=20)
        if kind == "hnsw+pq":
            params.update(n_subvectors=4, n_centroids=16)
        collection.create_index(kind, **params)
        target = collection.get(20).vector
        assert 20 in ids_of(collection, target, 5)

    def test_index_refreshes_after_upsert(self, collection, rng):
        collection.create_index("hnsw", m=4, ef_construction=20)
        fresh = rng.standard_normal(8)
        collection.upsert([Point(777, fresh, {"rank": 777})])
        assert ids_of(collection, fresh, 1) == [777]

    def test_index_refreshes_after_delete(self, collection):
        # Deletion marks the index stale; the next search must rebuild
        # it and never resurrect the deleted point.
        collection.create_index("hnsw", m=4, ef_construction=20)
        target = collection.get(20).vector
        assert ids_of(collection, target, 1) == [20]
        assert collection.delete([20]) == 1
        ids = ids_of(collection, target, 5)
        assert 20 not in ids
        assert len(ids) == 5

    def test_vectors_view_readonly(self, collection):
        with pytest.raises(ValueError):
            collection.vectors[0, 0] = 1.0


class TestRefusedUpsert:
    """A refused upsert leaves the collection as it was; an id repeated
    within one call keeps its last point."""

    @staticmethod
    def _one_point():
        col = Collection("c", dim=4)
        col.upsert([Point(1, np.ones(4), {"v": 1})])
        return col

    @staticmethod
    def assert_untouched(col):
        assert len(col) == 1 and 1 in col and 2 not in col
        assert col.vectors.shape == (1, 4)
        got = col.get(1)
        np.testing.assert_array_equal(got.vector, np.ones(4))
        assert got.payload == {"v": 1}

    def test_bad_dim_later_in_the_call_changes_nothing(self):
        col = self._one_point()
        with pytest.raises(DimensionMismatchError):
            col.upsert(
                [Point(1, np.full(4, 2.0), {"v": 2}), Point(3, np.ones(4)), Point(2, np.ones(3))]
            )
        self.assert_untouched(col)
        assert 3 not in col

    def test_new_id_repeated_in_one_call_keeps_the_last_point(self):
        col = self._one_point()
        col.upsert([Point(2, np.full(4, 2.0), {"v": "a"}), Point(2, np.full(4, 3.0), {"v": "b"})])
        assert len(col) == 2 and col.vectors.shape == (2, 4)
        got = col.get(2)
        np.testing.assert_array_equal(got.vector, np.full(4, 3.0))
        assert got.payload == {"v": "b"}
