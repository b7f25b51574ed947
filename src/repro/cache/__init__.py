"""Semantic query-result caching above the search methods.

:class:`SemanticResultCache` memoizes ranked answers keyed on the
request signature ``(method, k, h, tenant?)`` plus the query's
unit-normalized embedding: a lookup first tries an exact text hit, then
a near-duplicate probe (cosine >= tau) scored with one GEMM against the
signature's cached query vectors.  Entries are invalidated precisely by
the lifecycle layer's monotone ``generation`` counter, per method.
"""

from repro.cache.result_cache import (
    CacheHit,
    CacheSignature,
    SemanticResultCache,
    resolve_query_cache,
)

__all__ = [
    "CacheHit",
    "CacheSignature",
    "SemanticResultCache",
    "resolve_query_cache",
]
