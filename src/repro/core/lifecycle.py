"""Concurrency primitives for the incremental federation lifecycle.

Serving and mutation share one :class:`DiscoveryEngine`: query batches
may be in flight on the serving layer's dispatch threads while a delta
(add / update / remove relations) arrives.  The engine guards both
sides with a :class:`RWLock` — any number of concurrent readers
(searches) or exactly one writer (a delta) — so a query always sees a
complete generation of the store and every method index, never a torn
intermediate state.  This is the same discipline the embedding cache
uses for its LRU bookkeeping, lifted to the index level.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.annotations import guarded_by, monotonic, requires_lock
from repro.core.semimg import RelationEmbedding
from repro.errors import SanitizerError
from repro.sanitize import lockset

__all__ = [
    "FederationDelta",
    "InstrumentedRWLock",
    "RWLock",
    "guarded_by",
    "monotonic",
    "requires_lock",
]


@dataclass(frozen=True)
class FederationDelta:
    """One atomic batch of store mutations, as seen by the indexes.

    ``added`` and ``updated`` carry the freshly embedded relations (the
    store already holds them when the delta is applied); ``removed``
    lists retired relation ids.  ``generation`` is the store generation
    after the whole batch was absorbed.
    """

    added: tuple[RelationEmbedding, ...] = ()
    updated: tuple[RelationEmbedding, ...] = ()
    removed: tuple[str, ...] = ()
    generation: int = 0

    @property
    def n_changes(self) -> int:
        return len(self.added) + len(self.updated) + len(self.removed)


@dataclass
class RWLock:
    """Many concurrent readers or one exclusive writer.

    Readers (searches) overlap freely; a writer (delta application)
    waits for in-flight readers to drain and blocks new ones until it
    finishes.  The policy is writer-preference: once a writer is
    waiting, new readers queue behind it.  Under a sustained 100% read
    load a reader-preference lock would starve deltas forever; making
    readers yield to a pending writer bounds delta latency by the
    in-flight readers only, at the cost of one write-length stall for
    queries that arrive during the delta.
    """

    _cond: threading.Condition = field(default_factory=threading.Condition)
    _readers: int = 0
    _writing: bool = False
    _writers_waiting: int = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class _ThreadHolds(threading.local):
    """Per-thread lock-hold bookkeeping for the instrumented lock."""

    def __init__(self) -> None:
        self.read = 0
        self.write = False


class InstrumentedRWLock(RWLock):
    """An :class:`RWLock` that *raises* where the plain one deadlocks.

    Sanitizer mode (``REPRO_SANITIZE=1`` / ``DiscoveryEngine(
    sanitize=True)``) swaps this in for the plain lock.  It tracks
    which locks each thread holds and turns the three silent failure
    modes of a non-reentrant writer-preference lock into immediate
    :class:`~repro.errors.SanitizerError`\\ s:

    * **write-while-reading reentrancy** — a thread that holds the
      reader lock requests the writer lock (or vice versa, or nests
      either side): the plain lock would wait on itself forever;
    * **double-release** — releasing a side this thread does not hold,
      which would corrupt the reader count / writer flag;
    * **reader starvation** — a writer waiting longer than
      ``writer_timeout`` seconds for readers to drain (a stuck or
      leaked reader under sustained load).
    """

    def __init__(self, writer_timeout: float = 30.0) -> None:
        super().__init__()
        if writer_timeout <= 0:
            raise ValueError("writer_timeout must be > 0")
        self.writer_timeout = writer_timeout
        self._holds = _ThreadHolds()

    # -- explicit acquire/release (the contextmanagers delegate here) ----

    def acquire_read(self) -> None:
        if self._holds.write:
            raise SanitizerError(
                "read() requested while this thread holds the writer lock "
                "(reentrancy would deadlock)"
            )
        if self._holds.read:
            raise SanitizerError(
                "nested read() on one thread (deadlocks as soon as a writer queues "
                "between the two acquires — the lock is writer-preference)"
            )
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._holds.read += 1
        lockset.note_acquire(self, exclusive=False)

    def release_read(self) -> None:
        if not self._holds.read:
            raise SanitizerError("release of a reader lock this thread does not hold")
        self._holds.read -= 1
        lockset.note_release(self, exclusive=False)
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        if self._holds.read:
            raise SanitizerError(
                "write() requested while this thread holds the reader lock "
                "(write-while-reading reentrancy would deadlock)"
            )
        if self._holds.write:
            raise SanitizerError("nested write() on one thread (would deadlock)")
        deadline = time.monotonic() + self.writer_timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise SanitizerError(
                            f"writer starved for {self.writer_timeout:g}s waiting on "
                            f"{self._readers} reader(s) — a reader is stuck or leaked"
                        )
                    self._cond.wait(remaining)
            finally:
                self._writers_waiting -= 1
            self._writing = True
        self._holds.write = True
        lockset.note_acquire(self, exclusive=True)

    def release_write(self) -> None:
        if not self._holds.write:
            raise SanitizerError("release of a writer lock this thread does not hold")
        self._holds.write = False
        lockset.note_release(self, exclusive=True)
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
