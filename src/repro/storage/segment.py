"""The segment snapshot format: append-only, checksummed, atomic.

A snapshot is a directory of raw little-endian array **segments** and
JSON **documents**, described by one ``manifest.json`` that carries
each payload's dtype/shape, byte size and crc32 digest plus the store
``generation`` the snapshot captures.  The manifest is the commit
point:

* every payload file is written to a hidden temp name, flushed,
  ``fsync``-ed and ``os.replace``-d into place *before* the manifest;
* payload files are **epoch-prefixed** (``00000007.vectors.seg``), so
  re-committing over an existing snapshot never overwrites a file a
  concurrent reader may have mapped — the new epoch lands beside the
  old one and the manifest swap retargets readers atomically;
* the manifest itself goes through the same temp + fsync + ``replace``
  dance, then the directory entry is fsynced.  A crash at any point
  leaves either the previous complete snapshot or the new one — never
  a torn mix;
* after the commit, payload files of older epochs are deleted.

Integrity is checked at two strengths: :func:`open_snapshot` stat-checks
every payload's byte size (catching truncation without reading data —
cheap enough for the mmap fast path), and eager reads
(:meth:`SegmentSnapshot.array` / :meth:`~SegmentSnapshot.json`) verify
the full crc32 digest.  Mapped reads skip the digest by design: paging
in every byte to hash it would defeat lazy page-in, and the size check
still catches torn writes.  Any violation raises
:class:`~repro.errors.StorageError` — never garbage ranks.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import StorageError
from repro.obs import MetricsRegistry
from repro.storage.mapped import MappedBuffer

__all__ = ["MIGRATE_HINT", "SegmentSnapshot", "SegmentWriter", "open_snapshot"]

MANIFEST = "manifest.json"
FORMAT = "repro-segments-v1"
#: Appended to a refusal of a snapshot in a retired layout.
MIGRATE_HINT = (
    "snapshots saved in an older layout convert with "
    "`python -m repro.storage migrate SRC DST`"
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_EPOCH_RE = re.compile(r"^\d{8}\.")
_TMP_PREFIX = ".tmp."


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StorageError(f"invalid segment name {name!r}")
    return name


def _little_endian(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian bytes, converting only if needed."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def _write_file(directory: Path, filename: str, data: bytes) -> None:
    """Write ``data`` durably: temp file, flush, fsync, atomic rename."""
    tmp = directory / f"{_TMP_PREFIX}{filename}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, directory / filename)


class SegmentWriter:
    """Stage arrays and JSON documents, then :meth:`commit` atomically.

    One writer produces one snapshot epoch.  Nothing touches the target
    directory until ``commit()``; a writer that is never committed
    leaves an existing snapshot exactly as it was.
    """

    def __init__(
        self,
        path: "str | Path",
        generation: int = 0,
        meta: "dict[str, Any] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.path = Path(path)
        self.generation = int(generation)
        self.meta = dict(meta or {})
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._arrays: dict[str, np.ndarray] = {}
        self._documents: dict[str, bytes] = {}

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Stage one numeric array segment."""
        _validate_name(name)
        if name in self._arrays or name in self._documents:
            raise StorageError(f"segment {name!r} staged twice")
        self._arrays[name] = _little_endian(np.asarray(array))

    def add_json(self, name: str, obj: Any) -> None:
        """Stage one JSON document (strings, ids, nested metadata)."""
        _validate_name(name)
        if name in self._arrays or name in self._documents:
            raise StorageError(f"segment {name!r} staged twice")
        self._documents[name] = json.dumps(obj, ensure_ascii=False).encode("utf-8")

    def _next_epoch(self) -> int:
        manifest_path = self.path / MANIFEST
        if not manifest_path.exists():
            return 0
        try:
            previous = json.loads(manifest_path.read_text(encoding="utf-8"))
            return int(previous.get("epoch", -1)) + 1
        except (OSError, ValueError, TypeError, AttributeError):
            return 0

    def commit(self) -> Path:
        """Durably publish the staged payloads as the new snapshot.

        Payload files first (temp + fsync + rename, epoch-prefixed so
        nothing a reader may hold open is overwritten), the manifest
        last as the commit point, then older-epoch payloads are swept.
        Returns the snapshot directory.
        """
        with self.metrics.timer("storage.commit_ms"):
            self.path.mkdir(parents=True, exist_ok=True)
            epoch = self._next_epoch()
            prefix = f"{epoch:08d}."
            segments: dict[str, Any] = {}
            documents: dict[str, Any] = {}
            for name, array in self._arrays.items():
                filename = f"{prefix}{name}.seg"
                data = array.tobytes(order="C")
                _write_file(self.path, filename, data)
                segments[name] = {
                    "file": filename,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "nbytes": len(data),
                    "crc32": zlib.crc32(data),
                }
            for name, data in self._documents.items():
                filename = f"{prefix}{name}.json"
                _write_file(self.path, filename, data)
                documents[name] = {
                    "file": filename,
                    "nbytes": len(data),
                    "crc32": zlib.crc32(data),
                }
            manifest = {
                "format": FORMAT,
                "epoch": epoch,
                "generation": self.generation,
                "meta": self.meta,
                "segments": segments,
                "documents": documents,
            }
            _write_file(self.path, MANIFEST, json.dumps(manifest, indent=2).encode("utf-8"))
            _fsync_dir(self.path)
            self._sweep(prefix)
        self.metrics.gauge("storage.segments").set(float(len(segments) + len(documents)))
        return self.path

    def _sweep(self, keep_prefix: str) -> None:
        """Delete payload files of older epochs and stray temp files."""
        for entry in self.path.iterdir():
            if not entry.is_file():
                continue
            name = entry.name
            stale_epoch = _EPOCH_RE.match(name) and not name.startswith(keep_prefix)
            if stale_epoch or name.startswith(_TMP_PREFIX):
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - concurrent sweep
                    pass


class SegmentSnapshot:
    """A committed snapshot, opened for reading.

    :meth:`array` materializes a segment eagerly with full digest
    verification; :meth:`mapped` returns a
    :class:`~repro.storage.MappedBuffer` over the same file (size
    checked, lazily paged) that the caller owns; :meth:`json` decodes a
    document.  A manifest missing any field a reader uses is refused
    here with :class:`~repro.errors.StorageError`.
    """

    def __init__(self, path: Path, manifest: dict[str, Any], metrics: MetricsRegistry) -> None:
        self.path = path
        self.metrics = metrics
        try:
            self.epoch = int(manifest["epoch"])
            self.generation = int(manifest["generation"])
            self.meta: dict[str, Any] = dict(manifest.get("meta", {}))
            self._segments: dict[str, Any] = dict(manifest.get("segments", {}))
            self._documents: dict[str, Any] = dict(manifest.get("documents", {}))
            # Every field a reader uses, present before any read, and
            # payload files inside the snapshot directory.
            for table, fields in (
                (self._segments, {"file", "nbytes", "crc32", "dtype", "shape"}),
                (self._documents, {"file", "nbytes", "crc32"}),
            ):
                for entry in table.values():
                    int(entry["nbytes"])
                    if fields - entry.keys():
                        raise KeyError(sorted(fields - entry.keys()))
                    _validate_name(entry["file"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StorageError(
                f"snapshot manifest {path / MANIFEST} is malformed: {exc!r}"
            ) from exc

    def segment_names(self) -> list[str]:
        return sorted(self._segments)

    def _entry(self, table: dict[str, Any], name: str, what: str) -> dict[str, Any]:
        entry = table.get(name)
        if entry is None:
            raise StorageError(f"snapshot {self.path} has no {what} named {name!r}")
        return entry

    def _read_verified(self, entry: dict[str, Any], name: str) -> bytes:
        data = (self.path / entry["file"]).read_bytes()
        if len(data) != int(entry["nbytes"]):
            raise StorageError(
                f"segment {name!r} in {self.path} is {len(data)} bytes, "
                f"manifest says {entry['nbytes']} — torn write?"
            )
        if zlib.crc32(data) != int(entry["crc32"]):
            raise StorageError(
                f"segment {name!r} in {self.path} fails its crc32 digest — corruption"
            )
        return data

    def array(self, name: str) -> np.ndarray:
        """Eagerly read one array segment (size + digest verified).

        The returned array is read-only (it views the verified byte
        string); callers that mutate must copy.
        """
        entry = self._entry(self._segments, name, "array segment")
        with self.metrics.timer("storage.load_ms"):
            data = self._read_verified(entry, name)
            array = np.frombuffer(data, dtype=np.dtype(entry["dtype"]))
        return array.reshape(tuple(entry["shape"]))

    def mapped(self, name: str) -> MappedBuffer:
        """Map one array segment read-only (size verified, lazy pages).

        The caller owns the returned handle and must :meth:`close
        <repro.storage.MappedBuffer.close>` it.
        """
        entry = self._entry(self._segments, name, "array segment")
        with self.metrics.timer("storage.load_ms"):
            return MappedBuffer.from_file(
                self.path / entry["file"],
                np.dtype(entry["dtype"]),
                tuple(entry["shape"]),
            )

    def json(self, name: str) -> Any:
        """Decode one JSON document (size + digest verified)."""
        entry = self._entry(self._documents, name, "document")
        with self.metrics.timer("storage.load_ms"):
            data = self._read_verified(entry, name)
        return json.loads(data.decode("utf-8"))

    def _stat_check(self) -> None:
        """Cheap integrity pass: every payload's size matches the
        manifest.  Catches truncation without touching data pages."""
        for table, what in ((self._segments, "segment"), (self._documents, "document")):
            for name, entry in table.items():
                target = self.path / entry["file"]
                try:
                    actual = target.stat().st_size
                except OSError as exc:
                    raise StorageError(
                        f"{what} {name!r} of snapshot {self.path} is missing: {exc}"
                    ) from exc
                if actual != int(entry["nbytes"]):
                    raise StorageError(
                        f"{what} {name!r} of snapshot {self.path} is {actual} "
                        f"bytes, manifest says {entry['nbytes']} — torn write?"
                    )


def open_snapshot(
    path: "str | Path", metrics: "MetricsRegistry | None" = None
) -> SegmentSnapshot:
    """Open a snapshot directory, validating manifest and payload sizes."""
    path = Path(path)
    manifest_path = path / MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        hint = f"; {MIGRATE_HINT}" if path.exists() else ""
        raise StorageError(f"no segment snapshot at {path}: {exc}{hint}") from exc
    except ValueError as exc:
        raise StorageError(f"snapshot manifest {manifest_path} is malformed: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StorageError(f"snapshot manifest {manifest_path} is not a JSON object")
    if manifest.get("format") != FORMAT:
        raise StorageError(
            f"snapshot manifest {manifest_path} has format "
            f"{manifest.get('format')!r}, expected {FORMAT!r}; {MIGRATE_HINT}"
        )
    snapshot = SegmentSnapshot(
        path, manifest, metrics if metrics is not None else MetricsRegistry()
    )
    snapshot._stat_check()
    return snapshot
