"""Zero-cost concurrency annotations checked by ``repro-lint``.

These decorators attach metadata and return their target unchanged —
no wrapper frame, no runtime cost on any call path.  They exist so the
static rules and the lockset sanitizer can reason about which lock
protects what:

* :func:`guarded_by` declares which ``self`` attributes a class guards
  with its RWLock (enforced per-method by RL001);
* :func:`requires_lock` declares that a function may only be entered
  with the named side of the lifecycle lock held (enforced through the
  project call graph by RL007);
* :func:`monotonic` declares generation-like counter fields that only
  move forward, via increment-or-publish writes under the writer lock
  (enforced by RL010).

This module is an import leaf on purpose: ``repro.core.semimg`` and
``repro.cache`` annotate their hot types without pulling in the
lifecycle machinery (which itself imports ``semimg``).  The historical
home :mod:`repro.core.lifecycle` re-exports everything here.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["guarded_by", "monotonic", "requires_lock"]

_T = TypeVar("_T", bound=type)
_F = TypeVar("_F", bound=Callable[..., object])


def guarded_by(lock_attr: str, *attrs: str) -> Callable[[_T], _T]:
    """Class decorator declaring attributes guarded by an RWLock.

    ``@guarded_by("_lifecycle_lock", "_store", "_index")`` records that
    ``self._store`` and ``self._index`` may only be mutated while the
    writer side of ``self._lifecycle_lock`` is held.  The declaration is
    free at runtime — it only stores the mapping on the class — and is
    the anchor the RL001 lock-discipline lint rule checks statically:
    mutations of a declared attribute outside a ``with
    self.<lock>.write():`` block (or a ``@requires_lock("write")``
    method) are flagged, as are public ``search*`` entry points that
    never take the reader lock.
    """

    def decorate(cls: _T) -> _T:
        declared = dict(getattr(cls, "__guarded_attrs__", {}))
        for attr in attrs:
            declared[attr] = lock_attr
        cls.__guarded_attrs__ = declared  # type: ignore[attr-defined]
        return cls

    return decorate


def requires_lock(mode: str) -> Callable[[_F], _F]:
    """Method decorator: the caller must already hold the lock.

    ``mode`` is ``"read"`` or ``"write"``.  Like :func:`guarded_by`
    this is a zero-cost declaration consumed by the lint rules: a
    ``@requires_lock("write")`` method is treated as statically holding
    the writer lock, so its guarded-attribute mutations pass (RL001),
    and the obligation moves to its callers — which RL007 then chases
    through the project call graph, across modules.
    """
    if mode not in ("read", "write"):
        raise ValueError("requires_lock mode must be 'read' or 'write'")

    def decorate(func: _F) -> _F:
        func.__requires_lock__ = mode  # type: ignore[attr-defined]
        return func

    return decorate


def monotonic(*fields: str) -> Callable[[_T], _T]:
    """Class decorator declaring generation-like fields.

    A ``@monotonic("generation")`` class promises that outside
    ``__init__`` the named fields are only written as an increment
    (``self.generation += 1``) or a publish of another generation value
    (``self.generation = store.generation``), and only with the writer
    side held — the invariant the query cache's generation-precise
    invalidation rests on.
    RL010 enforces it statically; the declaration costs nothing at
    runtime.
    """

    def decorate(cls: _T) -> _T:
        declared = dict(getattr(cls, "__monotonic_fields__", {}))
        for name in fields:
            declared[name] = True
        cls.__monotonic_fields__ = declared  # type: ignore[attr-defined]
        return cls

    return decorate
