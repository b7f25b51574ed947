"""Eraser-style lockset race detection (``REPRO_SANITIZE=2``).

The classic Eraser algorithm: for every instrumented shared field keep
a *candidate lockset* — the locks every thread so far has held while
touching it.  Each access intersects the candidates with the locks the
accessing thread holds right now (all held locks for reads, only
exclusively-held locks for writes).  While one thread owns the field
the set is not consulted; as soon as a second thread touches it the
refinement starts, and a field that has been written from two threads
with an *empty* candidate set has, by construction, no lock protecting
it — that is a data race even if the unlucky interleaving never fired
in this run.  The tracker raises :class:`~repro.errors.SanitizerError`
at the racing access instead of letting the race stay latent.

Two deliberately weaker per-field policies cover the repo's lock-free
designs, where strict Eraser would report by-design behaviour:

* ``"publish"`` — readers are lock-free on purpose (the engine's
  ``_embeddings`` swap field, the cache's generation map); only *writes* are checked, and must hold some exclusive lock
  once the field is shared across threads.
* ``"anylock"`` — writes may run under the shared (reader) side (the
  cache's ``insert`` contract is "call with the engine's reader lock
  held"); a write holding no tracked lock at all is the violation.

Lock holds are reported by :class:`~repro.core.lifecycle.
InstrumentedRWLock` (reader side → shared, writer side → exclusive)
and by :class:`TrackedLock` (a ``threading.Lock`` wrapper the metrics
instruments switch to when armed).  Fields are instrumented either
with the :class:`TrackedField` data descriptor (every rebind of the
attribute is seen, including ones written after this PR) or with
explicit :func:`read`/:func:`write` calls at the access sites.

Everything no-ops behind one module-level boolean when the level-2
sanitizer is not armed, so production paths pay a single attribute
load + branch.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any

from repro.errors import SanitizerError

__all__ = [
    "TrackedField",
    "TrackedLock",
    "arm",
    "disarm",
    "enabled",
    "note_acquire",
    "note_release",
    "read",
    "reset",
    "tracked_lock",
    "write",
]

_POLICIES = ("eraser", "publish", "anylock")


def _env_level() -> int:
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return 0
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_armed: bool = _env_level() >= 2


class _HeldLocks(threading.local):
    """Multiset of lock tokens this thread holds, by mode."""

    def __init__(self) -> None:
        self.shared: dict[int, int] = {}
        self.exclusive: dict[int, int] = {}


_held = _HeldLocks()


class _FieldState:
    """Eraser bookkeeping for one ``(owner, field)`` pair."""

    __slots__ = ("label", "threads", "candidates", "written_shared")

    def __init__(self, label: str) -> None:
        self.label = label
        self.threads: set[int] = set()
        self.candidates: set[int] | None = None
        self.written_shared = False


_states: dict[tuple[int, str], _FieldState] = {}
_states_lock = threading.Lock()


def enabled() -> bool:
    """Whether the lockset tracker is armed (``REPRO_SANITIZE=2``)."""
    return _armed


def arm() -> None:
    """Arm the tracker (tests); clears any previously tracked state."""
    global _armed
    reset()
    _armed = True


def disarm() -> None:
    """Disarm the tracker and drop all tracked state."""
    global _armed
    _armed = False
    reset()


def reset() -> None:
    """Forget every tracked field (test isolation)."""
    with _states_lock:
        _states.clear()


def note_acquire(lock: object, *, exclusive: bool) -> None:
    """Record that the current thread acquired ``lock``."""
    if not _armed:
        return
    table = _held.exclusive if exclusive else _held.shared
    token = id(lock)
    table[token] = table.get(token, 0) + 1


def note_release(lock: object, *, exclusive: bool) -> None:
    """Record that the current thread released ``lock``."""
    if not _armed:
        return
    table = _held.exclusive if exclusive else _held.shared
    token = id(lock)
    count = table.get(token, 0)
    if count <= 1:
        table.pop(token, None)
    else:
        table[token] = count - 1


class TrackedLock:
    """A ``threading.Lock`` whose holds the lockset tracker can see.

    Exclusive-mode: holding it satisfies every policy.  The metrics
    instruments construct one (via :func:`tracked_lock`) when armed, so
    their per-value locks participate in candidate-set refinement.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            note_acquire(self, exclusive=True)
        return acquired

    def release(self) -> None:
        note_release(self, exclusive=True)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


def tracked_lock() -> "TrackedLock | threading.Lock":
    """A :class:`TrackedLock` when armed, else a plain ``Lock``.

    Decided at construction time: objects built before :func:`arm` keep
    plain locks and their hooks stay no-ops, so arming mid-process never
    reinterprets old objects' locking as races.
    """
    return TrackedLock() if _armed else threading.Lock()


def _purge(key: tuple[int, str]) -> None:
    # Deliberately lock-free (one atomic dict.pop): a GC pass inside
    # _access's critical section runs this finalizer on the thread that
    # already holds the non-reentrant _states_lock.
    _states.pop(key, None)


def _describe_holds(held_excl: set[int], held_shared: set[int]) -> str:
    if not held_excl and not held_shared:
        return "no tracked locks"
    return (
        f"{len(held_excl)} exclusive / {len(held_shared)} shared tracked lock(s)"
    )


def _access(owner: object, field: str, *, write: bool, policy: str) -> None:
    if not _armed:
        return
    held_shared = set(_held.shared)
    held_excl = set(_held.exclusive)
    thread = threading.get_ident()
    key = (id(owner), field)
    with _states_lock:
        state = _states.get(key)
        if state is None:
            state = _states[key] = _FieldState(f"{type(owner).__name__}.{field}")
            try:
                weakref.finalize(owner, _purge, key)
            except TypeError:
                pass  # not weakref-able: the entry lives until reset()
        state.threads.add(thread)
        if len(state.threads) < 2:
            # Still thread-exclusive (initialisation, single-threaded
            # use): Eraser defers judgement until the field is shared.
            return
        if policy == "eraser":
            held = held_excl if write else held_excl | held_shared
            state.candidates = (
                set(held) if state.candidates is None else state.candidates & held
            )
            if write:
                state.written_shared = True
            if state.written_shared and not state.candidates:
                raise SanitizerError(
                    f"lockset for {state.label} went empty: this "
                    f"{'write' if write else 'read'} holds "
                    f"{_describe_holds(held_excl, held_shared)} and no lock was "
                    "common to every access since the field became shared — "
                    "no lock protects this field (Eraser)"
                )
        elif write and policy == "publish":
            if not held_excl:
                raise SanitizerError(
                    f"{state.label} is published across threads but this write "
                    f"holds {_describe_holds(held_excl, held_shared)} — rebinds "
                    "require an exclusive (writer-side) lock"
                )
        elif write and policy == "anylock":
            if not held_excl and not held_shared:
                raise SanitizerError(
                    f"{state.label} is shared across threads but this write holds "
                    "no tracked lock at all — callers must hold at least the "
                    "reader side"
                )


def read(owner: object, field: str, policy: str = "eraser") -> None:
    """Record a read of ``owner.<field>`` under the current lockset."""
    _access(owner, field, write=False, policy=policy)


def write(owner: object, field: str, policy: str = "eraser") -> None:
    """Record a write of ``owner.<field>`` under the current lockset."""
    _access(owner, field, write=True, policy=policy)


class TrackedField:
    """Data descriptor: every read/rebind of the attribute is tracked.

    Declared on the class (``_embeddings = TrackedField("publish")``),
    it stores the value in the instance ``__dict__`` under a mangled
    slot, so *any* assignment — including ones added long after this
    instrumentation — passes through the tracker when armed.  Disarmed
    cost is one module-global boolean check per access.
    """

    __slots__ = ("_policy", "_name", "_slot")

    def __init__(self, policy: str = "eraser") -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown lockset policy {policy!r}")
        self._policy = policy
        self._name = ""
        self._slot = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name
        self._slot = f"__lockset_{name}"

    def __get__(self, obj: object, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        if _armed:
            _access(obj, self._name, write=False, policy=self._policy)
        try:
            return obj.__dict__[self._slot]
        except KeyError:
            raise AttributeError(self._name) from None

    def __set__(self, obj: object, value: Any) -> None:
        if _armed:
            _access(obj, self._name, write=True, policy=self._policy)
        obj.__dict__[self._slot] = value

    def __delete__(self, obj: object) -> None:
        obj.__dict__.pop(self._slot, None)
