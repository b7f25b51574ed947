"""The declared metric-name vocabulary of the serving stack.

Every counter, gauge and stage timer the engine, the search methods,
the execution backends and the vector database record lives in one of
these families — ``engine.*``, ``<method>.<stage>``, ``serving.*``,
``cache.*``, ``encoder_cache.*``, ``exec.*``, ``storage.*`` and
``vectordb.*`` — and this module is the single place
those names are declared.  Two consumers keep the vocabulary honest:

* the RL002 lint rule (:mod:`repro.analysis`) checks every literal or
  f-string metric name passed to a :class:`~repro.obs.MetricsRegistry`
  call site against these specs, so a typo like ``exs.sacn``
  fails CI instead of silently forking a new time series;
* :func:`markdown_table` renders the README's metrics table, so the
  docs cannot drift from the code (a test regenerates and compares).

Spec names may contain ``{placeholders}``: ``{method}`` matches a
method name (``exs``, ``cts``) and ``{collection}`` a vector-database
collection name.  F-string call sites are matched by
treating each interpolation as a wildcard that any placeholder accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["MetricSpec", "VOCABULARY", "WILDCARD", "markdown_table", "matches"]

#: Sentinel the lint rule substitutes for f-string interpolations; any
#: declared placeholder accepts it, no literal segment does.
WILDCARD = "\x00"

#: What each ``{placeholder}`` may expand to at runtime.
_PLACEHOLDER_PATTERNS = {
    "method": r"[a-z0-9_]+",
    "collection": r"[A-Za-z0-9_.-]+",
    "tenant": r"[A-Za-z0-9_-]+",
    "backend": r"[a-z]+",
}

_PLACEHOLDER_RE = re.compile(r"\{([a-z]+)\}")


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name template, instrument kind, meaning."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    description: str

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {self.kind!r}")


VOCABULARY: tuple[MetricSpec, ...] = (
    # -- engine.* ---------------------------------------------------------
    MetricSpec("engine.queries", "counter", "Queries served through the engine."),
    MetricSpec("engine.batches", "counter", "`search_batch` calls served."),
    MetricSpec("engine.deltas", "counter", "Lifecycle deltas applied atomically."),
    MetricSpec("engine.relations_added", "counter", "Relations added across all deltas."),
    MetricSpec("engine.relations_updated", "counter", "Relations re-embedded across all deltas."),
    MetricSpec("engine.relations_removed", "counter", "Relations retired across all deltas."),
    MetricSpec("engine.generation", "gauge", "Store generation the engine last published."),
    MetricSpec("engine.index_bytes", "gauge", "Resident bytes of the store's value table (counted once) plus what each built method owns."),
    # -- <method>.<stage> -------------------------------------------------
    MetricSpec("{method}.encode", "histogram", "Query-encoding stage latency (ms)."),
    MetricSpec("{method}.scan", "histogram", "Similarity-scan stage latency (ms)."),
    MetricSpec("{method}.route", "histogram", "Cluster/medoid routing stage latency (ms, CTS)."),
    MetricSpec("{method}.rank", "histogram", "Threshold + sort + top-k stage latency (ms)."),
    MetricSpec("{method}.latency_ms", "histogram", "End-to-end per-query latency (ms)."),
    MetricSpec("{method}.batch_ms", "histogram", "End-to-end whole-batch latency (ms)."),
    MetricSpec("{method}.delta_ms", "histogram", "Per-delta index maintenance latency (ms)."),
    MetricSpec("{method}.queries", "counter", "Queries answered by the method."),
    MetricSpec("{method}.batches", "counter", "Query batches answered by the method."),
    MetricSpec("{method}.deltas", "counter", "Store deltas absorbed by the method's index."),
    MetricSpec("{method}.generation", "gauge", "Store generation the method's index has applied."),
    MetricSpec("{method}.drift", "gauge", "Clustering staleness absorbed since the last rebuild (CTS)."),
    MetricSpec("{method}.rebuilds", "counter", "Drift-triggered full re-clusterings (CTS)."),
    # -- serving.* --------------------------------------------------------
    MetricSpec("serving.submitted", "counter", "Requests admitted into the serving queue."),
    MetricSpec("serving.completed", "counter", "Requests answered with a result."),
    MetricSpec("serving.rejected", "counter", "Requests rejected at admission: queue full."),
    MetricSpec("serving.throttled", "counter", "Requests rejected by a tenant's token bucket."),
    MetricSpec("serving.shed", "counter", "Expired requests shed before reaching the engine."),
    MetricSpec("serving.batches", "counter", "Coalesced windows dispatched to the engine."),
    MetricSpec("serving.queue_depth", "gauge", "Admitted-but-unanswered requests (backpressure level)."),
    MetricSpec("serving.batch_fill", "histogram", "Live requests per dispatched window (coalescing efficiency)."),
    MetricSpec("serving.queue_ms", "histogram", "Submit-to-dispatch wait in the batching window (ms)."),
    MetricSpec("serving.dispatch_ms", "histogram", "Engine time per dispatched window (ms)."),
    MetricSpec("serving.e2e_ms", "histogram", "Submit-to-result end-to-end latency (ms)."),
    MetricSpec("serving.tenant.{tenant}.throttled", "counter", "Rate-limit rejections, per tenant."),
    MetricSpec("serving.cache_hits", "counter", "Requests answered from the semantic cache before taking a queue slot."),
    # -- cache.* ----------------------------------------------------------
    MetricSpec("cache.hits", "counter", "Exact-text query-result cache hits."),
    MetricSpec("cache.near_hits", "counter", "Near-duplicate query-result cache hits (cosine >= tau)."),
    MetricSpec("cache.misses", "counter", "Query-result cache lookups that found no current entry."),
    MetricSpec("cache.evictions", "counter", "Cache entries dropped: stale generation, LRU or byte pressure."),
    MetricSpec("cache.bytes", "gauge", "Estimated resident bytes of cached rankings + query vectors."),
    MetricSpec("cache.probe_ms", "histogram", "Near-duplicate probe latency: one GEMM per lookup (ms)."),
    MetricSpec("encoder_cache.hits", "counter", "Texts served from the encoder's embedding cache."),
    MetricSpec("encoder_cache.misses", "counter", "Texts the encoder cache delegated for embedding."),
    MetricSpec("encoder_cache.evictions", "counter", "Embeddings evicted from the encoder cache (LRU)."),
    # -- exec.* -----------------------------------------------------------
    MetricSpec("exec.{backend}.tasks", "counter", "Tasks executed by the backend (submits + map lanes)."),
    MetricSpec("exec.{backend}.pool_size", "gauge", "Worker threads the backend is sized to."),
    MetricSpec("exec.{backend}.queue_ms", "histogram", "Submit-to-start wait on the backend's pool (ms)."),
    # -- storage.* --------------------------------------------------------
    MetricSpec("storage.commit_ms", "histogram", "Snapshot commit latency: payload fsyncs + atomic manifest swap (ms)."),
    MetricSpec("storage.load_ms", "histogram", "Per-payload snapshot read latency: digest-verified materialization or mmap setup (ms)."),
    MetricSpec("storage.mapped_bytes", "gauge", "Bytes currently served through memory-mapped segment files."),
    MetricSpec("storage.segments", "gauge", "Payload files (arrays + documents) in the most recently committed snapshot."),
    # -- vectordb.* -------------------------------------------------------
    MetricSpec("vectordb.searches", "counter", "Collection searches (one per query, batched or not)."),
    MetricSpec("vectordb.points_scanned", "counter", "Points scored by exact scans."),
    MetricSpec("vectordb.index_probes", "counter", "ANN index probes."),
    MetricSpec("vectordb.scan", "histogram", "Collection scan latency (ms)."),
    MetricSpec("vectordb.{collection}.bytes", "gauge", "Resident bytes one collection adds to the matrix it is given (norms + index)."),
)

#: Registry methods mapped to the instrument kind they create.
_CALL_KINDS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "timer": "histogram",
}


@lru_cache(maxsize=None)
def _spec_regex(name: str) -> "re.Pattern[str]":
    """Compile a spec name template into a full-match regex.

    Literal segments are escaped; each ``{placeholder}`` becomes its
    declared value pattern, alternated with the f-string WILDCARD.
    """
    parts: list[str] = []
    pos = 0
    for match in _PLACEHOLDER_RE.finditer(name):
        parts.append(re.escape(name[pos : match.start()]))
        value_pattern = _PLACEHOLDER_PATTERNS.get(match.group(1))
        if value_pattern is None:
            raise ValueError(f"unknown placeholder {match.group(0)!r} in spec {name!r}")
        parts.append(f"(?:{value_pattern}|{re.escape(WILDCARD)})")
        pos = match.end()
    parts.append(re.escape(name[pos:]))
    return re.compile("".join(parts) + r"\Z")


def matches(template: str, call_kind: str | None = None) -> bool:
    """Whether a call-site name template is in the declared vocabulary.

    ``template`` is a literal metric name, or an f-string with each
    interpolation replaced by :data:`WILDCARD`.  When ``call_kind`` is
    given (the registry method used: ``counter`` / ``gauge`` /
    ``histogram`` / ``timer``), the spec's instrument kind must agree
    too — recording a gauge name through ``counter()`` is drift even
    though the name exists.
    """
    expected = _CALL_KINDS.get(call_kind) if call_kind is not None else None
    for spec in VOCABULARY:
        if _spec_regex(spec.name).match(template):
            if expected is None or spec.kind == expected:
                return True
    return False


def markdown_table() -> str:
    """The vocabulary as a GitHub-markdown table (the README source)."""
    lines = ["| Metric | Kind | Meaning |", "|---|---|---|"]
    for spec in VOCABULARY:
        shown = _PLACEHOLDER_RE.sub(lambda m: f"<{m.group(1)}>", spec.name)
        lines.append(f"| `{shown}` | {spec.kind} | {spec.description} |")
    return "\n".join(lines)
