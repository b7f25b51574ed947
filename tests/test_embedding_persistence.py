"""Tests for federation-embedding persistence (engine save/load_index)."""

import numpy as np
import pytest

from repro.core import (
    DiscoveryEngine,
    load_federation_embeddings,
    save_federation_embeddings,
)
from repro.data.covid import covid_federation
from repro.embedding import SemanticHashEncoder
from repro.errors import ConfigurationError, StorageError
from repro.storage import live_mapped_paths
from repro.storage.migrate import migrate

from tests.legacy_layouts import save_npz


@pytest.fixture(scope="module")
def engine():
    eng = DiscoveryEngine(dim=96)
    return eng.index(covid_federation())


class TestEmbeddingPersistence:
    def test_roundtrip_preserves_everything(self, engine, tmp_path):
        path = tmp_path / "emb"
        save_federation_embeddings(engine.embeddings, path)
        loaded = load_federation_embeddings(path, engine.encoder)
        assert loaded.relation_ids() == engine.embeddings.relation_ids()
        for orig, rest in zip(engine.embeddings.relations, loaded.relations):
            assert rest.values == orig.values
            assert rest.attr_names == orig.attr_names
            np.testing.assert_array_equal(rest.vectors, orig.vectors)
            np.testing.assert_array_equal(rest.counts, orig.counts)

    def test_engine_save_load_same_rankings(self, engine, tmp_path):
        path = tmp_path / "engine"
        engine.save_index(path)
        restored = DiscoveryEngine(dim=96).load_index(path)
        for method in ("exs", "anns"):
            a = engine.search("COVID", method=method, k=4, h=-1.0).relation_ids()
            b = restored.search("COVID", method=method, k=4, h=-1.0).relation_ids()
            assert a == b

    def test_dim_mismatch_rejected(self, engine, tmp_path):
        path = tmp_path / "emb96"
        engine.save_index(path)
        with pytest.raises(ConfigurationError):
            load_federation_embeddings(path, SemanticHashEncoder(dim=64))

    def test_engine_load_index_rejects_dim_mismatch(self, engine, tmp_path):
        """``load_index`` validates the snapshot against ``self.encoder``
        up front, raising ConfigurationError rather than letting the
        mismatch surface later as a shape error inside a scan kernel."""
        path = tmp_path / "emb96_engine"
        engine.save_index(path)
        mismatched = DiscoveryEngine(dim=64)
        with pytest.raises(ConfigurationError):
            mismatched.load_index(path)
        assert not mismatched.is_indexed

    def test_sharded_engine_reload_matches_unsharded(self, engine, tmp_path):
        """``shards=`` on the loading engine changes no answer."""
        path = tmp_path / "sharded"
        engine.save_index(path)
        restored = DiscoveryEngine(dim=96, shards=3).load_index(path)
        for method in ("exs",):
            a = engine.search("COVID", method=method, k=4, h=-1.0).relation_ids()
            b = restored.search("COVID", method=method, k=4, h=-1.0).relation_ids()
            assert a == b

    def test_build_seconds_and_generation_roundtrip(self, engine, tmp_path):
        # Regression: build_seconds used to be dropped on save, so
        # every reloaded store claimed a zero-cost build.
        path = tmp_path / "meta"
        assert engine.embeddings.build_seconds > 0.0
        save_federation_embeddings(engine.embeddings, path)
        loaded = load_federation_embeddings(path, engine.encoder)
        assert loaded.build_seconds == engine.embeddings.build_seconds
        assert loaded.generation == engine.embeddings.generation

    def test_legacy_npz_snapshots_still_load(self, engine, tmp_path):
        """A single-file ``.npz`` archive migrates into a snapshot that
        loads, eagerly or mapped, with the archive's ids, build time,
        generation and exact vectors and scores."""
        save_npz(engine.embeddings, tmp_path / "old.npz")
        migrate(tmp_path / "old.npz", tmp_path / "new")
        for mmap in (False, True):
            with DiscoveryEngine(dim=96).load_index(tmp_path / "new", mmap=mmap) as restored:
                loaded = restored.embeddings
                assert loaded.relation_ids() == engine.embeddings.relation_ids()
                assert loaded.build_seconds == engine.embeddings.build_seconds
                assert loaded.generation == engine.embeddings.generation
                for orig, rest in zip(engine.embeddings.relations, loaded.relations):
                    assert rest.values == orig.values
                    np.testing.assert_array_equal(rest.vectors, orig.vectors)
                for method in ("exs", "anns"):
                    a = engine.search("COVID", method=method, k=4, h=-1.0)
                    b = restored.search("COVID", method=method, k=4, h=-1.0)
                    assert [(m.relation_id, m.score) for m in a] == [
                        (m.relation_id, m.score) for m in b
                    ]
            assert not live_mapped_paths()

    def test_old_snapshots_without_metadata_still_load(self, engine, tmp_path):
        """The first archives had no build time or generation; they
        migrate at zero for both."""
        save_npz(engine.embeddings, tmp_path / "old.npz", metadata=False)
        migrate(tmp_path / "old.npz", tmp_path / "new")
        loaded = load_federation_embeddings(tmp_path / "new", engine.encoder)
        assert loaded.relation_ids() == engine.embeddings.relation_ids()
        assert loaded.build_seconds == 0.0
        assert loaded.generation == 0

    def test_legacy_npz_cannot_mmap(self, engine, tmp_path):
        """An archive is not a segment snapshot: loading one, mapped or
        not, is refused with the command that converts it."""
        path = tmp_path / "old.npz"
        save_npz(engine.embeddings, path)
        for mmap in (False, True):
            with pytest.raises(StorageError, match="python -m repro.storage migrate"):
                load_federation_embeddings(path, engine.encoder, mmap=mmap)
        assert not live_mapped_paths()

    def test_loaded_engine_is_indexed(self, engine, tmp_path):
        path = tmp_path / "e"
        engine.save_index(path)
        restored = DiscoveryEngine(dim=96)
        assert not restored.is_indexed
        restored.load_index(path)
        assert restored.is_indexed
