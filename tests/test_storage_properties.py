"""Property tests: persistence is invisible in the rankings.

The storage layer's contract is that *how* an index got into memory —
cold ``index()`` build, eager snapshot load, or ``mmap=True`` mapped
load — is undetectable in search results: rankings identical, scores
exact (the snapshot stores the float32 scan dtype, so the mapped bytes
ARE the cold-build bytes).  That must hold across methods, ``shards=``
values, across lifecycle deltas applied after a load, and for the
retired layouts — the sharded one (``shard-<i>/`` sub-snapshots under a
root manifest) that engines built with ``shards > 1`` used to save, and
float64 snapshots — once ``repro.storage.migrate`` has converted them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DiscoveryEngine
from repro.core.semimg import relation_centroids
from repro.datamodel.relation import Federation
from repro.errors import StorageError
from repro.storage import SegmentWriter, live_mapped_paths, open_snapshot
from repro.storage.migrate import migrate

from tests.engine_equivalence import (
    QUERIES,
    assert_same_rankings,
    make_relation,
    qualified,
)
from tests.legacy_layouts import save_float64, save_sharded, save_without_centroids


def federation(n: int = 8) -> Federation:
    return Federation.from_relations([make_relation(s) for s in range(n)])


def make_engine(shards: int = 1) -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48,
        method_params={"anns": {"index_kind": "exact", "n_candidates": 10_000}},
        shards=shards,
        executor="inline",
    )


def assert_scores_exact(a: DiscoveryEngine, b: DiscoveryEngine, method: str) -> None:
    """Stronger than the cross-backend tolerance: a reloaded snapshot
    serves the very same bytes, so scores match bit for bit."""
    for query in QUERIES:
        ra = a.search(query, method=method, k=100, h=-1.0)
        rb = b.search(query, method=method, k=100, h=-1.0)
        assert ra.relation_ids() == rb.relation_ids()
        assert [m.score for m in ra.matches] == [m.score for m in rb.matches]


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("method", ["exs", "anns"])
@pytest.mark.parametrize("shards", [1, 2, 5])
def test_reload_matches_cold_build(tmp_path, shards, method, mmap):
    fed = federation()
    with make_engine(shards).index(fed) as cold:
        cold.save_index(tmp_path / "snap")
        with make_engine(shards).load_index(tmp_path / "snap", mmap=mmap) as warm:
            assert_scores_exact(cold, warm, method)
    assert not live_mapped_paths()


@pytest.mark.parametrize("stored", [np.float32, np.float64], ids=["f32", "f64"])
def test_reload_matches_cold_build_both_dtypes(tmp_path, stored):
    """A float32 snapshot maps as saved; a float64 one is refused, then
    migrates to float32 and serves the cold build's bits."""
    fed = federation()
    with make_engine(shards=2).index(fed) as cold:
        if stored is np.float32:
            cold.save_index(tmp_path / "snap")
        else:
            save_float64(cold.embeddings, tmp_path / "old")
            with make_engine(shards=2) as refusing:
                with pytest.raises(StorageError, match="float64 .* repro.storage migrate"):
                    refusing.load_index(tmp_path / "old", mmap=True)
            migrate(tmp_path / "old", tmp_path / "snap")
        loaded = make_engine(shards=2).load_index(tmp_path / "snap", mmap=True)
        with loaded as warm:
            for method in ("exs", "anns"):
                assert_scores_exact(cold, warm, method)
    assert not live_mapped_paths()


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("shards", [1, 5])
def test_deltas_after_load_match_deltas_after_build(tmp_path, shards, mmap):
    """A loaded engine is a *live* engine: a delta applied after the
    load ranks exactly like the same delta applied to the cold build
    (the mapped backing is copied out on the first store mutation)."""
    fed = federation()
    cold = make_engine(shards).index(fed)
    cold.save_index(tmp_path / "snap")
    warm = make_engine(shards).load_index(tmp_path / "snap", mmap=mmap)
    try:
        for engine in (cold, warm):
            engine.method("exs")
            engine.method("anns")
            engine.add_relations({qualified(50): make_relation(50)})
            engine.update_relations({qualified(2): make_relation(2, version=1)})
            engine.remove_relations([qualified(3)])
        for method in ("exs", "anns"):
            assert_same_rankings(cold, warm, method)
    finally:
        cold.close()
        warm.close()
    assert not live_mapped_paths()


@pytest.mark.parametrize("saved_shards,loaded_shards", [(5, 2), (2, 1), (1, 3)])
def test_layout_change_repartitions_identically(tmp_path, saved_shards, loaded_shards):
    """A snapshot saved in any shard layout, migrated, loads under any
    ``shards=`` with the cold build's exact scores, and ``close()``
    unmaps it."""
    fed = federation()
    with make_engine().index(fed) as cold:
        if saved_shards > 1:
            save_sharded(cold.embeddings, tmp_path / "old", saved_shards)
            migrate(tmp_path / "old", tmp_path / "snap")
        else:
            cold.save_index(tmp_path / "snap")
        loaded = make_engine(loaded_shards).load_index(tmp_path / "snap", mmap=True)
        with loaded as warm:
            assert_scores_exact(cold, warm, "exs")
    assert not live_mapped_paths()


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_sharded_snapshot_loads_like_a_cold_build(tmp_path, mmap):
    """Migration makes one store from every ``shard-<i>/``, in the
    root's relation order and at the root's generation, answering ExS
    with the cold build's bits; a mapped load holds its one vectors
    file until close."""
    fed = federation()
    with make_engine().index(fed) as cold:
        cold.update_relations({qualified(2): make_relation(2, version=1)})
        save_sharded(cold.embeddings, tmp_path / "old", shards=3)
        migrate(tmp_path / "old", tmp_path / "snap")
        with make_engine().load_index(tmp_path / "snap", mmap=mmap) as warm:
            assert warm.embeddings.relation_ids() == cold.embeddings.relation_ids()
            assert warm.embeddings.generation == cold.embeddings.generation
            assert len(live_mapped_paths()) == (1 if mmap else 0)
            assert_scores_exact(cold, warm, "exs")
    assert not live_mapped_paths()


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_torn_sharded_snapshot_is_refused(tmp_path, mmap):
    """A shard at another generation than the root recorded is a torn
    multi-shard save: ``migrate`` refuses it and writes no output, and
    ``load_index`` refuses the root itself, with nothing left mapped."""
    with make_engine().index(federation()) as cold:
        save_sharded(cold.embeddings, tmp_path / "old", shards=3, generations=[10, 99, 12])
    with pytest.raises(StorageError, match="shard-1 .* generation 11, root manifest expects 99"):
        migrate(tmp_path / "old", tmp_path / "snap")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]
    with make_engine() as warm:
        with pytest.raises(StorageError, match="repro.storage migrate"):
            warm.load_index(tmp_path / "old", mmap=mmap)
        assert not warm.is_indexed
    assert not live_mapped_paths()


@pytest.mark.parametrize(
    "stored,mmap,saved_without",
    [
        pytest.param(np.float32, False, False, id="f32-eager"),
        pytest.param(np.float32, True, False, id="f32-mmap"),
        pytest.param(np.float64, False, False, id="f64-eager"),
        pytest.param(np.float64, True, False, id="f64-mmap"),
        pytest.param(np.float64, True, True, id="f64-mmap-migrated"),
    ],
)
def test_saved_centroids_are_the_computed_bits(tmp_path, stored, mmap, saved_without):
    """A snapshot carries the ExS centroids, so a load serves them
    without a pass over every value vector — and they are exactly what
    that pass would compute, until a delta makes the store recompute.
    A snapshot saved without them, or with ``stored`` float64 vectors,
    is refused until ``migrate`` rewrites it."""
    with make_engine().index(federation()) as cold:
        if saved_without:
            save_without_centroids(cold.embeddings, tmp_path / "old", dtype=stored)
        elif stored is np.float64:
            save_float64(cold.embeddings, tmp_path / "old")
        else:
            cold.save_index(tmp_path / "snap")
        if (tmp_path / "old").exists():
            # The dtype is checked first, then the centroids.
            refusal = "float64" if stored is np.float64 else "no centroids"
            with make_engine() as refusing:
                with pytest.raises(StorageError, match=f"{refusal} .* repro.storage migrate"):
                    refusing.load_index(tmp_path / "old", mmap=mmap)
            migrate(tmp_path / "old", tmp_path / "snap")
    with make_engine().load_index(tmp_path / "snap", mmap=mmap) as warm:
        store = warm.embeddings
        saved, generation = store.saved_centroids
        assert generation == store.generation
        assert np.array_equal(saved, relation_centroids(store.relations))
        assert warm.method("exs")._matrix is saved
        warm.update_relations({qualified(2): make_relation(2, version=1)})
        assert np.array_equal(store.centroids(), relation_centroids(store.relations))
    assert not live_mapped_paths()


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_misshapen_saved_centroids_are_refused(tmp_path, mmap):
    with make_engine().index(federation(4)) as cold:
        cold.save_index(tmp_path / "snap")
    snapshot = open_snapshot(tmp_path / "snap")
    writer = SegmentWriter(tmp_path / "snap", generation=snapshot.generation, meta=snapshot.meta)
    for name in snapshot.segment_names():
        array = snapshot.array(name)
        writer.add_array(name, array[:-1] if name == "centroids" else array)
    writer.add_json("relations", snapshot.json("relations"))
    writer.commit()
    with make_engine() as warm:
        with pytest.raises(StorageError, match="centroids"):
            warm.load_index(tmp_path / "snap", mmap=mmap)
    assert not live_mapped_paths()


def test_reshaped_vectors_are_refused_with_nothing_mapped(tmp_path):
    """A manifest whose ``vectors`` shape keeps the byte count but not
    the rows and dim passes the size check; the load must refuse it as
    a storage fault and close the mapping it opened."""
    with make_engine().index(federation(4)) as cold:
        cold.save_index(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    rows, dim = manifest["segments"]["vectors"]["shape"]
    manifest["segments"]["vectors"]["shape"] = [2 * rows, dim // 2]
    manifest_path.write_text(json.dumps(manifest))
    with make_engine() as warm:
        with pytest.raises(StorageError, match="vectors"):
            warm.load_index(tmp_path / "snap", mmap=True)
        assert not warm.is_indexed
    assert not live_mapped_paths()


def test_snapshot_without_relations_is_refused(tmp_path):
    """An engine never holds an empty store (``index`` and deltas refuse
    one), so a snapshot of none is refused at load, not at first search."""
    with make_engine().index(federation(2)) as cold:
        cold.save_index(tmp_path / "snap")
    snapshot = open_snapshot(tmp_path / "snap")
    writer = SegmentWriter(tmp_path / "snap", generation=snapshot.generation, meta=snapshot.meta)
    for name in snapshot.segment_names():
        writer.add_array(name, snapshot.array(name)[:0])
    writer.add_json("relations", {"ids": [], "values": [], "names": []})
    writer.commit()
    with make_engine() as warm:
        with pytest.raises(StorageError, match="no relations"):
            warm.load_index(tmp_path / "snap")
        assert not warm.is_indexed


class TestDtypeMismatch:
    """Snapshots hold float32 vectors.  A float64 one, as engines built
    with ``dtype=float64`` saved it, fails loudly up front and names the
    command that converts it."""

    def test_load_index_names_both_dtypes(self, tmp_path):
        with make_engine().index(federation(4)) as engine:
            save_float64(engine.embeddings, tmp_path / "snap")
        with make_engine() as mismatched:
            with pytest.raises(StorageError) as excinfo:
                mismatched.load_index(tmp_path / "snap")
            assert "float64" in str(excinfo.value)
            assert "float32" in str(excinfo.value)
            assert "python -m repro.storage migrate" in str(excinfo.value)
            assert not mismatched.is_indexed

    def test_sharded_snapshot_checked_at_the_root(self, tmp_path):
        """``migrate`` writes float32 whatever dtype the root recorded."""
        with make_engine().index(federation(6)) as engine:
            save_sharded(engine.embeddings, tmp_path / "old", shards=3, dtype=np.float64)
        assert open_snapshot(tmp_path / "old").meta["dtype"] == "float64"
        migrate(tmp_path / "old", tmp_path / "snap")
        assert open_snapshot(tmp_path / "snap").meta["dtype"] == "float32"
        with make_engine(shards=3).load_index(tmp_path / "snap", mmap=True) as warm:
            assert warm.embeddings.value_table().vectors.dtype == np.float32
        assert not live_mapped_paths()

    def test_matching_dtype_loads(self, tmp_path):
        with make_engine().index(federation(4)) as engine:
            engine.save_index(tmp_path / "snap")
        assert open_snapshot(tmp_path / "snap").meta["dtype"] == "float32"
        with make_engine().load_index(tmp_path / "snap") as warm:
            assert warm.is_indexed
