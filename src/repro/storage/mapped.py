"""Memory-mapped segment buffers: millisecond cold starts, lazy page-in.

A :class:`MappedBuffer` is a read-only ``np.memmap`` over a committed
segment file.  Opening one touches no data pages — the kernel pages
bytes in on first access — so ``load_index(..., mmap=True)`` returns in
milliseconds regardless of index size, and the first scan pays the I/O
exactly once, amortized over the rows it actually reads.

The module keeps a registry of live mapped buffers so tests can assert
engine ``close()`` releases every mapping and the ``storage.
mapped_bytes`` gauge can report what is currently served off files.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from repro.errors import StorageError

__all__ = ["MappedBuffer", "live_mapped_nbytes", "live_mapped_paths"]

_live_lock = threading.Lock()
#: Open mapped buffers by identity (leak + mapped_bytes accounting).
_live: dict[int, "MappedBuffer"] = {}


def live_mapped_paths() -> list[str]:
    """Paths of segment files with an open mapping (sorted, unique).

    An engine that served from mapped segments and then ``close()``-d
    must leave this empty — the leak tests assert exactly that.
    """
    with _live_lock:
        return sorted({str(buffer._path) for buffer in _live.values()})


def live_mapped_nbytes() -> int:
    """Total bytes addressable through open mapped buffers."""
    with _live_lock:
        return sum(buffer._nbytes for buffer in _live.values())


class MappedBuffer:
    """A read-only numpy view over a memory-mapped segment file.

    Construct via :meth:`from_file`; :meth:`close` drops the mapping
    (idempotent).  One owner holds each handle — the store that loaded
    it — so there is no reference count.
    """

    def __init__(self, path: Path, array: np.ndarray, nbytes: int) -> None:
        self._path = path
        self._array: np.ndarray | None = array
        self._nbytes = nbytes
        with _live_lock:
            _live[id(self)] = self

    @classmethod
    def from_file(
        cls, path: "str | Path", dtype: "str | np.dtype", shape: tuple[int, ...]
    ) -> "MappedBuffer":
        """Map ``path`` as a C-order array of ``dtype`` and ``shape``.

        The file's size must equal the array's byte size exactly — a
        torn write fails here, not as garbage rows mid-scan.  Zero-size
        arrays (an empty shard's matrix) are represented without a
        mapping: ``mmap`` cannot map an empty file.
        """
        path = Path(path)
        dt = np.dtype(dtype)
        expected = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        try:
            actual = path.stat().st_size
        except OSError as exc:
            raise StorageError(f"segment file {path} is unreadable: {exc}") from exc
        if actual != expected:
            raise StorageError(
                f"segment file {path} is {actual} bytes but manifest says "
                f"{expected} (dtype {dt.str}, shape {tuple(shape)}) — torn write?"
            )
        if expected == 0:
            array = np.empty(shape, dtype=dt)
            array.flags.writeable = False
        else:
            array = np.memmap(path, dtype=dt, mode="r", shape=tuple(shape), order="C")
        return cls(path, array, expected)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def array(self) -> np.ndarray:
        """The read-only view; invalid once the buffer is closed."""
        if self._array is None:
            raise ValueError("MappedBuffer used after close()")
        return self._array

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def closed(self) -> bool:
        return self._array is None

    def close(self) -> None:
        """Drop the mapping; idempotent.  Views handed out via
        :attr:`array` keep the pages alive until they die — the registry
        entry goes now either way, which is what leak accounting
        measures."""
        self._array = None
        with _live_lock:
            _live.pop(id(self), None)
        # Never mmap.close() here: numpy releases its Py_buffer export
        # right after construction, so close() would munmap under any
        # ndarray views still alive (instant segfault on next read).
        # Dropping our reference lets the mapping unwind through GC the
        # moment the last view dies.
