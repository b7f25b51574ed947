"""``repro.storage.migrate``: every retired layout becomes one current
snapshot that answers like a cold build, bit for bit.

The retired layouts come from :mod:`tests.legacy_layouts`.  Each is
migrated, then loaded eagerly and mapped; ExS and exact-index ANNS must
return the cold build's ``(relation, score)`` lists at the stored
generation, from float32 vectors whatever dtype the input stored.  A
torn input is refused with no output written.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import DiscoveryEngine
from repro.errors import StorageError
from repro.storage import live_mapped_paths, open_snapshot
from repro.storage.migrate import migrate

from tests.crossprocess import ROOT, SRC
from tests.engine_equivalence import QUERIES, make_relation, qualified
from tests.legacy_layouts import save_float64, save_npz, save_sharded, save_without_centroids
from tests.test_storage_properties import federation, make_engine

LAYOUTS = {
    "npz": lambda store, path: save_npz(store, path),
    "sharded": lambda store, path: save_sharded(store, path, 3, np.float64),
    "centroidless": lambda store, path: save_without_centroids(store, path, np.float64),
    "float64": save_float64,
}


def answers(engine: DiscoveryEngine, method: str) -> list:
    return [
        [(m.relation_id, m.score) for m in engine.search(q, method=method, k=100, h=-1.0)]
        for q in QUERIES
    ]


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_migrated_layout_answers_like_a_cold_build(tmp_path, layout, mmap):
    with make_engine().index(federation()) as cold:
        cold.update_relations({qualified(2): make_relation(2, version=1)})
        LAYOUTS[layout](cold.embeddings, tmp_path / "old")
        with make_engine() as refusing:
            with pytest.raises(StorageError, match="repro.storage migrate"):
                refusing.load_index(tmp_path / "old", mmap=mmap)
        migrate(tmp_path / "old", tmp_path / "new")
        snapshot = open_snapshot(tmp_path / "new")
        assert snapshot.generation == cold.embeddings.generation
        assert snapshot.meta["dtype"] == "float32"
        assert "centroids" in snapshot.segment_names()
        with make_engine().load_index(tmp_path / "new", mmap=mmap) as warm:
            assert warm.embeddings.relation_ids() == cold.embeddings.relation_ids()
            for method in ("exs", "anns"):
                assert answers(warm, method) == answers(cold, method)
    assert not live_mapped_paths()


def test_existing_destination_is_refused(tmp_path):
    with make_engine().index(federation(3)) as cold:
        cold.save_index(tmp_path / "snap")
        save_npz(cold.embeddings, tmp_path / "old.npz")
    before = sorted(p.name for p in (tmp_path / "snap").iterdir())
    with pytest.raises(StorageError, match="already exists"):
        migrate(tmp_path / "old.npz", tmp_path / "snap")
    assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == before


def run_cli(*args: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.storage", "migrate", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def test_command_line(tmp_path):
    """``python -m repro.storage migrate``: exit 0 and a loadable
    snapshot; on a torn sharded root a non-zero exit, the reason on
    stderr and no output directory."""
    with make_engine().index(federation(4)) as cold:
        save_sharded(cold.embeddings, tmp_path / "old", shards=2)
        save_sharded(cold.embeddings, tmp_path / "torn", shards=2, generations=[10, 7])
    done = run_cli(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 0, done.stderr
    with make_engine().load_index(tmp_path / "new") as warm:
        assert warm.embeddings.n_relations == 4
    done = run_cli(tmp_path / "torn", tmp_path / "torn-new")
    assert done.returncode != 0
    assert "shard-1" in done.stderr and "root manifest expects 7" in done.stderr
    assert not (tmp_path / "torn-new").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "old", "torn"]
