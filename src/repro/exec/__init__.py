"""The unified execution layer: pluggable parallel backends.

An :class:`ExecutionBackend` runs the library's one parallel site, the
serving dispatch pool:

* :class:`InlineBackend` — serial, deterministic reference;
* :class:`ThreadBackend` — one persistent sized thread pool (BLAS
  releases the GIL), with per-call ``cap`` clamping.

No backend starts a worker process; every search method scans in the
calling process.  :func:`resolve_backend` maps a name to a backend.
The RL005 lint rule pins every raw ``ThreadPoolExecutor`` construction
to this package, so "parallelism" stays one subsystem instead of a
pile of per-call pools.
"""

from repro.exec.backend import (
    ExecutionBackend,
    InlineBackend,
    ThreadBackend,
    default_pool_size,
    resolve_backend,
)

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "default_pool_size",
    "resolve_backend",
]
