"""Resident shard scan state and the worker-process protocol.

A :class:`ShardScanSpec` is everything a worker process needs to scan
one published scan state: the centroid matrix, one row per relation
(as a :class:`~repro.linalg.sharedbuf.BufferSpec` naming a
shared-memory segment or — ``kind="mmap"`` — a committed segment file
the worker maps read-only, or the raw array when neither exists), the
relation offsets and per-row weights — stamped with the store's
monotone ``generation`` so stale state is detectable.

:func:`shard_worker_main` is the worker entry point: a loop over a
command pipe speaking five tuples —

``("publish", key, spec)``
    (re)build the resident state for ``key`` (attach the shared
    segment read-only); replaces and closes any previous resident.
``("drop", key)``
    release ``key``'s resident state.
``("scan", key, generation, query_block)``
    the row-wise scan kernel over the resident matrix; errors loudly when
    ``key`` is unknown or its resident generation differs.
``("ping",)`` / ``("stop",)``
    liveness probe / graceful shutdown.

One request gets exactly one ``("ok", payload)`` or ``("err", text)``
reply; the parent serializes requests per worker with a lock, so the
pipe never interleaves frames.  The scan kernel is the very same
:func:`repro.linalg.segment.rowwise_scores` ExS uses inline, over
the very same bytes, so worker scores are bitwise identical to an
in-process scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ExecutionError
from repro.linalg import sharedbuf
from repro.linalg.segment import rowwise_scores
from repro.linalg.sharedbuf import ArrayBuffer, BufferSpec, SharedBuffer
from repro.storage.mapped import MappedBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["ResidentShard", "ShardScanSpec", "shard_worker_main"]


@dataclass(frozen=True)
class ShardScanSpec:
    """Picklable ExS scan state of one shard at one generation.

    Exactly one of ``buffer`` / ``matrix`` is set: ``buffer`` names a
    shared-memory segment (or mapped file) the worker attaches
    zero-copy; ``matrix`` is the ordinary ndarray pickled through the
    pipe — the centroid matrix, or the fallback for platforms without
    shared memory.  ``weights`` are per-row segment weights for
    :func:`~repro.linalg.segment.segment_scores` replays; the scan
    itself needs none (centroids already fold the count weights in).
    """

    generation: int
    buffer: BufferSpec | None
    matrix: np.ndarray | None
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if (self.buffer is None) == (self.matrix is None):
            raise ExecutionError("ShardScanSpec needs exactly one of buffer/matrix")


class ResidentShard:
    """One shard's scan state as held inside a worker process."""

    def __init__(self, spec: ShardScanSpec) -> None:
        self.spec = spec
        self._view: ArrayBuffer | None = None
        if spec.buffer is not None:
            # Dispatch on the spec's transport: a "shm" spec attaches a
            # shared-memory segment, an "mmap" spec maps the committed
            # segment file the parent itself serves from — zero bytes
            # copied, one page-cache image shared by every process.
            if spec.buffer.kind == "mmap":
                self._view = MappedBuffer.attach(spec.buffer)
            else:
                self._view = SharedBuffer.attach(spec.buffer)
            self.matrix = self._view.array
        else:
            assert spec.matrix is not None
            self.matrix = spec.matrix

    @property
    def generation(self) -> int:
        return self.spec.generation

    def scan(self, query_block: np.ndarray) -> np.ndarray:
        """The ``(R, Q)`` score matrix — the parent's kernel, verbatim,
        over the same bytes."""
        return rowwise_scores(self.matrix, query_block)

    def close(self) -> None:
        # Drop our ndarray reference before closing the mapping, so the
        # segment's exported memoryview count reaches zero.
        self.matrix = np.empty((0, 0), dtype=np.float32)
        view, self._view = self._view, None
        if view is not None:
            view.close()


def _handle(message: Any, resident: dict[str, ResidentShard]) -> Any:
    if not isinstance(message, tuple) or not message:
        raise ExecutionError(f"malformed worker command: {message!r}")
    command = message[0]
    if command == "ping":
        return "pong"
    if command == "stop":
        return "bye"
    if command == "publish":
        _, key, spec = message
        previous = resident.get(key)
        resident[key] = ResidentShard(spec)
        if previous is not None:
            previous.close()
        return spec.generation
    if command == "drop":
        _, key = message
        dropped = resident.pop(key, None)
        if dropped is not None:
            dropped.close()
        return None
    if command == "scan":
        _, key, generation, query_block = message
        shard = resident.get(key)
        if shard is None:
            raise ExecutionError(f"no resident state for shard {key!r}")
        if shard.generation != generation:
            raise ExecutionError(
                f"stale shard state for {key!r}: resident generation "
                f"{shard.generation}, caller expects {generation}"
            )
        return shard.scan(query_block)
    raise ExecutionError(f"unknown worker command: {message[0]!r}")


def shard_worker_main(conn: "Connection") -> None:
    """Worker-process entry point: serve the command pipe until EOF or
    an explicit ``("stop",)``.

    A bad request answers ``("err", ...)`` and the loop continues — a
    worker must outlive any single command, or one stale scan would
    take every resident shard on it down too.
    """
    # A forked worker inherits the parent's owned-segment registry; the
    # segments are the parent's to unlink, not ours.
    sharedbuf._forget_inherited()
    resident: dict[str, ResidentShard] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            reply: tuple[str, Any]
            try:
                reply = ("ok", _handle(message, resident))
            except Exception as exc:
                reply = ("err", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            if isinstance(message, tuple) and message and message[0] == "stop":
                break
    finally:
        for shard in resident.values():
            shard.close()
        conn.close()
