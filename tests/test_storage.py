"""Tests for the segment snapshot layer (repro.storage).

Covers the format contract end to end: atomic commits with the
manifest as the commit point, epoch-prefixed payloads surviving
re-commits under live mappings, both integrity strengths (stat-check at
open, crc32 on eager reads), mapped-buffer leak accounting, and the
refusal of anything that is not a well-formed snapshot.
"""

import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.obs import MetricsRegistry
from repro.storage import (
    SegmentWriter,
    live_mapped_nbytes,
    live_mapped_paths,
    open_snapshot,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def write_snapshot(path, *, generation=3, meta=None, rng=None, shape=(5, 4)):
    rng = rng or np.random.default_rng(0)
    writer = SegmentWriter(path, generation=generation, meta=meta or {"kind": "test"})
    writer.add_array("vectors", rng.standard_normal(shape).astype(np.float32))
    writer.add_array("counts", np.arange(shape[0], dtype=np.int64))
    writer.add_json("relations", {"ids": ["a/x", "b/y"], "names": ["α", "β"]})
    writer.commit()
    return path


class TestWriterAndSnapshot:
    def test_roundtrip_arrays_and_json(self, tmp_path, rng):
        vectors = rng.standard_normal((6, 3)).astype(np.float32)
        writer = SegmentWriter(tmp_path / "snap", generation=9, meta={"kind": "t"})
        writer.add_array("vectors", vectors)
        writer.add_json("doc", {"names": ["solé", "日本"]})
        writer.commit()

        snap = open_snapshot(tmp_path / "snap")
        assert snap.generation == 9
        assert snap.meta == {"kind": "t"}
        got = snap.array("vectors")
        np.testing.assert_array_equal(got, vectors)
        assert got.dtype == np.float32
        assert not got.flags.writeable
        assert snap.json("doc") == {"names": ["solé", "日本"]}

    def test_is_snapshot(self, tmp_path, rng):
        """Only a committed snapshot opens; an empty directory or a
        single-file archive is refused, naming the migration command."""
        with pytest.raises(StorageError, match="repro.storage migrate"):
            open_snapshot(tmp_path)  # empty dir
        np.savez_compressed(tmp_path / "old.npz", x=np.zeros(2, dtype=np.float64))
        with pytest.raises(StorageError, match="repro.storage migrate"):
            open_snapshot(tmp_path / "old.npz")
        write_snapshot(tmp_path / "snap", rng=rng)
        assert open_snapshot(tmp_path / "snap").generation == 3

    def test_uncommitted_writer_leaves_snapshot_untouched(self, tmp_path, rng):
        write_snapshot(tmp_path / "snap", generation=1, rng=rng)
        before = sorted(p.name for p in (tmp_path / "snap").iterdir())
        writer = SegmentWriter(tmp_path / "snap", generation=2)
        writer.add_array("vectors", rng.standard_normal((2, 2)))
        # no commit()
        assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == before
        assert open_snapshot(tmp_path / "snap").generation == 1

    def test_duplicate_and_invalid_names_rejected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "snap")
        writer.add_array("x", np.zeros(1, dtype=np.float32))
        with pytest.raises(StorageError):
            writer.add_array("x", np.zeros(1, dtype=np.float32))
        with pytest.raises(StorageError):
            writer.add_json("x", [])
        with pytest.raises(StorageError):
            writer.add_array("../escape", np.zeros(1, dtype=np.float32))

    def test_missing_payload_name(self, tmp_path, rng):
        snap = open_snapshot(write_snapshot(tmp_path / "snap", rng=rng))
        with pytest.raises(StorageError):
            snap.array("nope")
        with pytest.raises(StorageError):
            snap.json("nope")

    def test_open_missing_or_malformed(self, tmp_path):
        with pytest.raises(StorageError):
            open_snapshot(tmp_path / "nowhere")
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError):
            open_snapshot(tmp_path / "bad")
        (tmp_path / "bad" / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(StorageError):
            open_snapshot(tmp_path / "bad")
        good = json.loads(
            (write_snapshot(tmp_path / "good") / "manifest.json").read_text()
        )
        segment = good["segments"]["vectors"]
        document = good["documents"]["relations"]
        malformed = [
            [1, 2],
            "manifest",
            {**good, "epoch": None},
            {k: v for k, v in good.items() if k != "epoch"},
            {k: v for k, v in good.items() if k != "generation"},
            {**good, "generation": "later"},
            {**good, "meta": "kind"},
            {**good, "segments": [segment]},
            {**good, "segments": {"vectors": "00000000.vectors.seg"}},
            {**good, "documents": {"relations": {**document, "nbytes": "many"}}},
            {**good, "segments": {"vectors": {**segment, "file": "../escape.seg"}}},
        ]
        for field in ("file", "nbytes", "dtype", "shape", "crc32"):
            entry = {k: v for k, v in segment.items() if k != field}
            malformed.append({**good, "segments": {**good["segments"], "vectors": entry}})
        for field in ("file", "nbytes", "crc32"):
            entry = {k: v for k, v in document.items() if k != field}
            malformed.append({**good, "documents": {"relations": entry}})
        for manifest in malformed:
            (tmp_path / "bad" / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(StorageError):
                open_snapshot(tmp_path / "bad")
            # A writer commits a fresh snapshot over any of them.
            write_snapshot(tmp_path / "bad")
            assert open_snapshot(tmp_path / "bad").generation == 3

    def test_commit_records_metrics(self, tmp_path, rng):
        metrics = MetricsRegistry()
        writer = SegmentWriter(tmp_path / "snap", metrics=metrics)
        writer.add_array("vectors", rng.standard_normal((3, 2)).astype(np.float32))
        writer.add_json("doc", [1, 2])
        writer.commit()
        assert metrics.gauge("storage.segments").value == 2.0


class TestIntegrity:
    def test_truncated_segment_fails_at_open(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", rng=rng)
        seg = next(p for p in path.iterdir() if p.name.endswith("vectors.seg"))
        seg.write_bytes(seg.read_bytes()[:-8])
        with pytest.raises(StorageError, match="torn"):
            open_snapshot(path)

    def test_corrupted_bytes_fail_the_digest(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", rng=rng)
        seg = next(p for p in path.iterdir() if p.name.endswith("vectors.seg"))
        data = bytearray(seg.read_bytes())
        data[3] ^= 0xFF  # same size, different bytes: only the crc sees it
        seg.write_bytes(bytes(data))
        snap = open_snapshot(path)  # stat-check passes
        with pytest.raises(StorageError, match="crc32"):
            snap.array("vectors")

    def test_corrupted_document_fails_the_digest(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", rng=rng)
        doc = next(p for p in path.iterdir() if p.name.endswith("relations.json"))
        data = bytearray(doc.read_bytes())
        data[1] ^= 0x01
        doc.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="crc32"):
            open_snapshot(path).json("relations")

    def test_missing_payload_file_fails_at_open(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", rng=rng)
        next(p for p in path.iterdir() if p.name.endswith("counts.seg")).unlink()
        with pytest.raises(StorageError, match="missing"):
            open_snapshot(path)


class TestEpochs:
    def test_recommit_bumps_epoch_and_sweeps(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", generation=1, rng=rng)
        assert open_snapshot(path).epoch == 0
        write_snapshot(path, generation=2, rng=rng)
        snap = open_snapshot(path)
        assert snap.epoch == 1 and snap.generation == 2
        names = [p.name for p in path.iterdir()]
        assert not any(n.startswith("00000000.") for n in names), names

    def test_live_mapping_survives_recommit(self, tmp_path, rng):
        """The sweep unlinks old-epoch files, but an open mapping keeps
        serving the old bytes — readers are never yanked mid-scan."""
        path = write_snapshot(tmp_path / "snap", generation=1, rng=rng)
        old = open_snapshot(path)
        buffer = old.mapped("vectors")
        before = buffer.array.copy()
        write_snapshot(path, generation=2, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(buffer.array, before)
        buffer.close()

    def test_sweep_keeps_subdirectories(self, tmp_path, rng):
        """Sharded roots hold ``shard-<i>/`` dirs beside their payloads;
        the sweep must only ever unlink files."""
        path = write_snapshot(tmp_path / "snap", rng=rng)
        sub = path / "shard-0"
        write_snapshot(sub, rng=rng)
        write_snapshot(path, generation=5, rng=rng)
        assert open_snapshot(sub).generation == 3


class TestMappedBuffer:
    def test_mapped_matches_eager(self, tmp_path, rng):
        snap = open_snapshot(write_snapshot(tmp_path / "snap", rng=rng))
        buffer = snap.mapped("vectors")
        np.testing.assert_array_equal(buffer.array, snap.array("vectors"))
        assert not buffer.array.flags.writeable
        buffer.close()

    def test_empty_array_maps_without_a_file_mapping(self, tmp_path):
        writer = SegmentWriter(tmp_path / "snap")
        writer.add_array("empty", np.empty((0, 8), dtype=np.float32))
        writer.commit()
        buffer = open_snapshot(tmp_path / "snap").mapped("empty")
        assert buffer.array.shape == (0, 8)
        buffer.close()

    def test_registry_accounting(self, tmp_path, rng):
        assert not live_mapped_paths()
        snap = open_snapshot(write_snapshot(tmp_path / "snap", rng=rng))
        buffer = snap.mapped("vectors")
        assert live_mapped_paths() == [str(buffer.path)]
        assert live_mapped_nbytes() == buffer.nbytes > 0
        buffer.close()
        assert not live_mapped_paths()
        assert live_mapped_nbytes() == 0

    def test_use_after_close(self, tmp_path, rng):
        snap = open_snapshot(write_snapshot(tmp_path / "snap", rng=rng))
        buffer = snap.mapped("vectors")
        buffer.close()
        with pytest.raises(ValueError):
            _ = buffer.array
        assert buffer.closed
        buffer.close()  # idempotent

    def test_truncation_fails_at_map_time(self, tmp_path, rng):
        path = write_snapshot(tmp_path / "snap", rng=rng)
        snap = open_snapshot(path)
        seg = next(p for p in path.iterdir() if p.name.endswith("vectors.seg"))
        seg.write_bytes(seg.read_bytes()[:-4])
        with pytest.raises(StorageError, match="torn"):
            snap.mapped("vectors")
