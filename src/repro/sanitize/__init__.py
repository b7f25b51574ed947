"""Runtime sanitizers complementing the static invariants.

``REPRO_SANITIZE=1`` (or ``DiscoveryEngine(sanitize=True)``) arms two
runtime checks that complement the static rules in
:mod:`repro.analysis`:

* **operand guards** — before a scan kernel runs (the ExS
  federation-wide scan, the vector database's batched scan), its array
  operands are checked for NaN/Inf values and for silent dtype
  promotion away from the configured storage dtype;
* **instrumented locking** — the engine swaps its
  :class:`~repro.core.lifecycle.RWLock` for an
  :class:`~repro.core.lifecycle.InstrumentedRWLock` that tracks
  per-thread held state and raises on reentrancy, double-release and
  reader-starvation instead of deadlocking.

``REPRO_SANITIZE=2`` additionally arms the Eraser-style lockset race
detector in :mod:`repro.sanitize.lockset`: instrumented shared-state
accesses (the engine's swap fields, cache stores, metrics internals) intersect the set of locks each thread holds, and a field
whose candidate lockset goes empty across threads raises
:class:`~repro.errors.SanitizerError` at the racing access.  Level 2 is
a strict superset of level 1.

This package is dependency-light (numpy + stdlib only) so the vector
database and the core kernels can both import it without cycles.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.errors import SanitizerError
from repro.sanitize import lockset

__all__ = ["guard_operands", "lockset", "sanitize_enabled", "sanitize_level"]

#: Environment switch; any value other than ""/"0"/"false"/"no" arms it.
ENV_VAR = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitizer mode."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "no")


def sanitize_level() -> int:
    """The requested sanitizer level: 0 (off), 1 (guards), 2 (+lockset).

    Any truthy value arms level 1, so historical ``REPRO_SANITIZE=1`` /
    ``=true`` usage is unchanged; ``REPRO_SANITIZE=2`` (or higher) also
    arms the lockset race detector.
    """
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return 0
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def guard_operands(
    *arrays: "np.ndarray[Any, Any]",
    where: str,
    expect_dtype: "np.dtype[Any] | None" = None,
) -> None:
    """Raise :class:`SanitizerError` on bad kernel operands.

    ``expect_dtype`` catches silent promotion (a float64 block reaching
    a float32 kernel doubles bandwidth and breaks score-identity
    contracts); the finiteness check catches NaN/Inf poisoning before
    it propagates through a GEMM into every downstream score.
    """
    for position, array in enumerate(arrays):
        if expect_dtype is not None and array.dtype != np.dtype(expect_dtype):
            raise SanitizerError(
                f"{where}: operand {position} has dtype {array.dtype}, expected "
                f"{np.dtype(expect_dtype)} (silent dtype promotion at a kernel boundary)"
            )
        if array.dtype.kind == "f" and not bool(np.isfinite(array).all()):
            raise SanitizerError(
                f"{where}: operand {position} contains NaN/Inf values"
            )
