"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything the library raises with a single handler
while still being able to distinguish specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class NotFittedError(ReproError):
    """A model/index was used before it was fitted or built."""


class DimensionMismatchError(ReproError):
    """Vector dimensionality does not match what a component expects."""


class CollectionError(ReproError):
    """A vector collection operation failed."""


class EmptyIndexError(ReproError):
    """A search was issued against an index that contains no vectors."""


class SanitizerError(ReproError):
    """A runtime sanitizer (``REPRO_SANITIZE=1``) detected an invariant
    violation: lock misuse that would deadlock or tear state, or
    non-finite / wrongly-typed operands at a scan-kernel boundary."""


class ServingError(ReproError):
    """Base class for failures of the async serving front end."""


class QueueFull(ServingError):
    """Admission control rejected a request: the serving queue is at its
    bound.  ``retry_after_ms`` is a backoff hint — roughly how long the
    current backlog needs to drain one window."""

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class RateLimited(ServingError):
    """A tenant's token bucket is empty.  ``retry_after_ms`` is the time
    until the bucket refills one token at its sustained rate."""

    def __init__(self, message: str, tenant: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_ms = retry_after_ms


class DeadlineExceeded(ServingError):
    """A request's deadline expired while it waited in a batching window;
    it was shed before reaching the engine."""


class ServingClosed(ServingError):
    """A request arrived after :meth:`ServingEngine.drain` stopped intake."""


class StorageError(ReproError):
    """A persisted snapshot is unreadable or fails integrity checks: a
    missing or malformed manifest, a segment file whose size disagrees
    with the manifest (torn write), or a payload whose digest does not
    match the committed checksum (corruption)."""


class ExecutionError(ReproError):
    """An execution backend was used after ``close()``."""


class DataGenerationError(ReproError):
    """Synthetic corpus or query generation failed."""


class EvaluationError(ReproError):
    """Metric computation or experiment evaluation failed."""
