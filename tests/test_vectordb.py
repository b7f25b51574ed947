"""Tests for the vector collection: a search over a matrix it is given."""

import numpy as np
import pytest

from repro.errors import CollectionError, DimensionMismatchError
from repro.vectordb import Collection


@pytest.fixture()
def collection(rng):
    return Collection("test", rng.standard_normal((50, 8)))


def rows_of(collection, query, k):
    """One query's top-k rows."""
    rows, _ = collection.search_rows(np.asarray(query)[np.newaxis, :], k)[0]
    return rows.tolist()


class TestCollection:
    def test_len_and_contains(self, collection):
        # Rows are the ids: a collection is as long as its matrix.
        assert len(collection) == 50
        assert collection.dim == 8 and collection.dtype == np.float64

    def test_upsert_overwrites(self, collection, rng):
        # reset() swaps the whole matrix; searches read the new one.
        fresh = rng.standard_normal((50, 8))
        collection.reset(fresh)
        assert len(collection) == 50
        np.testing.assert_array_equal(collection.vectors, fresh)
        assert rows_of(collection, fresh[3], 1) == [3]

    def test_upsert_dim_mismatch(self, collection):
        with pytest.raises(DimensionMismatchError):
            collection.reset(np.zeros((50, 5)))
        with pytest.raises(CollectionError):
            collection.reset(np.zeros((50, 8), dtype=np.float32))
        with pytest.raises(CollectionError):
            Collection("ints", np.zeros((3, 4), dtype=np.int64))

    def test_search_exact_top1(self, collection):
        target = collection.vectors[10]
        assert rows_of(collection, target, 1) == [10]

    def test_query_dim_check(self, collection):
        with pytest.raises(DimensionMismatchError):
            collection.search_rows(np.zeros((1, 3)), 1)

    def test_empty_collection_search(self):
        found = Collection("empty", np.zeros((0, 4))).search_rows(np.zeros((2, 4)), 3)
        assert [rows.tolist() for rows, _ in found] == [[], []]

    @pytest.mark.parametrize("kind", ["hnsw", "hnsw+pq", "exact"])
    def test_indexed_search_contains_true_top1(self, collection, kind, rng):
        params = {}
        if kind in ("hnsw", "hnsw+pq"):
            params.update(m=4, ef_construction=20)
        if kind == "hnsw+pq":
            params.update(n_subvectors=4, n_centroids=16)
        collection.create_index(kind, **params)
        target = collection.vectors[20]
        assert 20 in rows_of(collection, target, 5)

    def test_index_refreshes_after_upsert(self, collection, rng):
        # A reset that appends a row stales the index; the next search
        # rebuilds it and finds the new row.
        collection.create_index("hnsw", m=4, ef_construction=20)
        fresh = rng.standard_normal(8)
        collection.reset(np.vstack([collection.vectors, fresh]))
        assert rows_of(collection, fresh, 1) == [50]

    def test_index_refreshes_after_delete(self, collection):
        # A reset that drops a row stales the index; the next search
        # must rebuild it and never resurrect the dropped row.
        collection.create_index("hnsw", m=4, ef_construction=20)
        target = collection.vectors[20].copy()
        assert rows_of(collection, target, 1) == [20]
        kept = np.delete(collection.vectors, 20, axis=0)
        collection.reset(kept)
        rows = rows_of(collection, target, 5)
        assert len(rows) == 5
        for row in rows:
            assert not np.array_equal(kept[row], target)

    def test_vectors_view_readonly(self, collection):
        with pytest.raises(ValueError):
            collection.vectors[0, 0] = 1.0

    def test_matrix_is_read_in_place(self, rng):
        matrix = rng.standard_normal((6, 4)).astype(np.float32)
        collection = Collection("shared", matrix)
        assert np.shares_memory(collection.vectors, matrix)
        assert collection.nbytes == 0  # norms and index come later
        collection.search_rows(matrix[:1], k=2)
        assert collection.nbytes == 6 * 4  # float32 norms, nothing else


class TestRefusedUpsert:
    """A refused reset leaves the collection as it was."""

    def test_bad_dim_later_in_the_call_changes_nothing(self):
        col = Collection("c", np.ones((1, 4)))
        with pytest.raises(DimensionMismatchError):
            col.reset(np.ones((3, 3)))
        assert len(col) == 1 and col.vectors.shape == (1, 4)
        np.testing.assert_array_equal(col.vectors, np.ones((1, 4)))
