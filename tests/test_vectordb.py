"""Tests for the vector database: filters, collections and the database."""

import numpy as np
import pytest

from repro.errors import (
    CollectionExistsError,
    CollectionNotFoundError,
    DimensionMismatchError,
    PointNotFoundError,
)
from repro.linalg.distances import Metric
from repro.vectordb import (
    Collection,
    FieldCondition,
    Filter,
    MatchAny,
    MatchValue,
    Point,
    Range,
    VectorDatabase,
)


class TestFilters:
    def test_match_value(self):
        cond = FieldCondition("kind", match=MatchValue("fruit"))
        assert cond.test({"kind": "fruit"})
        assert not cond.test({"kind": "veg"})
        assert not cond.test({})

    def test_match_any(self):
        cond = FieldCondition("kind", match=MatchAny(["a", "b"]))
        assert cond.test({"kind": "b"})
        assert not cond.test({"kind": "c"})

    def test_range(self):
        cond = FieldCondition("score", range=Range(gte=1, lt=5))
        assert cond.test({"score": 1})
        assert cond.test({"score": 4.9})
        assert not cond.test({"score": 5})
        assert not cond.test({"score": "high"})

    def test_condition_requires_exactly_one_clause(self):
        with pytest.raises(ValueError):
            FieldCondition("x")
        with pytest.raises(ValueError):
            FieldCondition("x", match=MatchValue(1), range=Range(gte=0))

    def test_filter_must_should_must_not(self):
        f = Filter(
            must=[FieldCondition("a", match=MatchValue(1))],
            should=[
                FieldCondition("b", match=MatchValue(2)),
                FieldCondition("b", match=MatchValue(3)),
            ],
            must_not=[FieldCondition("c", match=MatchValue(9))],
        )
        assert f.test({"a": 1, "b": 2})
        assert f.test({"a": 1, "b": 3})
        assert not f.test({"a": 1, "b": 4})       # should unmet
        assert not f.test({"a": 0, "b": 2})       # must unmet
        assert not f.test({"a": 1, "b": 2, "c": 9})  # must_not hit

    def test_empty_filter_accepts_everything(self):
        assert Filter().test({"whatever": 1})


@pytest.fixture()
def collection(rng):
    col = Collection("test", dim=8)
    points = [
        Point(i, rng.standard_normal(8), {"group": "even" if i % 2 == 0 else "odd", "rank": i})
        for i in range(50)
    ]
    col.upsert(points)
    return col


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
        hits = collection.search(target, 1)
        assert hits[0].id == 10

    def test_search_with_filter(self, collection, rng):
        filt = Filter(must=[FieldCondition("group", match=MatchValue("even"))])
        hits = collection.search(rng.standard_normal(8), 10, filter=filt)
        assert len(hits) == 10
        assert all(h.payload["group"] == "even" for h in hits)

    def test_search_range_filter(self, collection, rng):
        filt = Filter(must=[FieldCondition("rank", range=Range(lt=5))])
        hits = collection.search(rng.standard_normal(8), 20, filter=filt)
        assert {h.id for h in hits} <= {0, 1, 2, 3, 4}

    def test_search_with_vectors(self, collection):
        target = collection.get(4).vector
        hit = collection.search(target, 1, with_vectors=True)[0]
        np.testing.assert_allclose(hit.vector, target)

    def test_query_dim_check(self, collection):
        with pytest.raises(DimensionMismatchError):
            collection.search(np.zeros(3), 1)

    def test_empty_collection_search(self):
        assert Collection("empty", dim=4).search(np.zeros(4), 3) == []

    @pytest.mark.parametrize("kind", ["hnsw", "pq", "hnsw+pq", "ivf", "exact"])
    def test_indexed_search_contains_true_top1(self, collection, kind, rng):
        params = {}
        if kind in ("hnsw", "hnsw+pq"):
            params.update(m=4, ef_construction=20)
        if kind in ("pq", "hnsw+pq"):
            params.update(n_subvectors=4, n_centroids=16)
        if kind == "ivf":
            params.update(n_cells=4, n_probe=4)
        collection.create_index(kind, **params)
        target = collection.get(20).vector
        hits = collection.search(target, 5, rescore=True)
        assert 20 in {h.id for h in hits}

    def test_index_refreshes_after_upsert(self, collection, rng):
        collection.create_index("hnsw", m=4, ef_construction=20)
        fresh = rng.standard_normal(8)
        collection.upsert([Point(777, fresh, {})])
        hits = collection.search(fresh, 1)
        assert hits[0].id == 777

    def test_index_refreshes_after_delete(self, collection):
        # Deletion marks the index stale; the next search must rebuild
        # it and never resurrect the deleted point.
        collection.create_index("hnsw", m=4, ef_construction=20)
        target = collection.get(20).vector
        assert collection.search(target, 1)[0].id == 20
        assert collection.delete([20]) == 1
        hits = collection.search(target, 5)
        assert 20 not in {h.id for h in hits}
        assert len(hits) == 5

    def test_vectors_view_readonly(self, collection):
        with pytest.raises(ValueError):
            collection.vectors[0, 0] = 1.0

    def test_scroll_with_filter(self, collection):
        filt = Filter(must=[FieldCondition("group", match=MatchValue("odd"))])
        points = collection.scroll(filt)
        assert len(points) == 25


class TestVectorDatabase:
    def test_create_get_drop(self):
        db = VectorDatabase()
        db.create_collection("a", dim=4)
        assert "a" in db and len(db) == 1
        assert db.get_collection("a").dim == 4
        db.drop_collection("a")
        assert "a" not in db

    def test_duplicate_create(self):
        db = VectorDatabase()
        db.create_collection("a", dim=4)
        with pytest.raises(CollectionExistsError):
            db.create_collection("a", dim=4)

    def test_missing_collection(self):
        with pytest.raises(CollectionNotFoundError):
            VectorDatabase().get_collection("nope")
        with pytest.raises(CollectionNotFoundError):
            VectorDatabase().drop_collection("nope")

    def test_list_sorted(self):
        db = VectorDatabase()
        db.create_collection("zz", dim=2)
        db.create_collection("aa", dim=2)
        assert db.list_collections() == ["aa", "zz"]
