"""The unified execution layer: pluggable parallel backends.

One :class:`ExecutionBackend` per engine runs every parallel site the
library has — query-chunk fan-outs and the serving dispatch pool:

* :class:`InlineBackend` — serial, deterministic reference;
* :class:`ThreadBackend` — one persistent sized thread pool (BLAS
  releases the GIL), with per-call ``cap`` clamping.

No backend starts a worker process; every search method scans in the
calling process.  :func:`resolve_backend` maps a name (or the
``REPRO_EXECUTOR`` environment variable) to a backend.  The RL005 lint
rule pins every raw ``ThreadPoolExecutor`` construction to this
package, so "parallelism" stays one subsystem instead of a pile of
per-call pools.
"""

from repro.exec.backend import (
    EXECUTOR_ENV,
    ExecutionBackend,
    InlineBackend,
    ThreadBackend,
    default_pool_size,
    resolve_backend,
)

__all__ = [
    "EXECUTOR_ENV",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "default_pool_size",
    "resolve_backend",
]
