"""Per-layer numbers, each taken from outside the program.

Three sources: the spans the timing wrappers recorded, differences of
``engine.metrics.snapshot()`` around the traced repeats, and a replay of
a method's steps through its public functions, each step timed alone.
Every probe names the metrics it owns; one that trips over a hook a later
change renamed or removed leaves its metrics empty and is listed under
``skipped_layers`` — the ledger never crashes on a layer it cannot see.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from bench import corpora
from bench.stats import median, percentile
from bench.trace import durations_ms


@dataclass
class Context:
    """What the probes read: the workload after its traced repeats, the
    spans of those repeats, and the registry snapshot taken after them
    (the registry was reset when tracing was armed)."""

    workload: object
    spans: list[dict]
    snapshot: dict
    reference: list  # repeats run with the wrappers disarmed
    traced: list  # repeats run with the wrappers armed
    encoder_before: dict = field(default_factory=dict)
    encoder_after: dict = field(default_factory=dict)

    @property
    def engine(self):
        return self.workload.engine

    @property
    def n_calls(self) -> int:
        return sum(len(r.latencies_ms) for r in self.traced) or 1

    def span_ms(self, name: str) -> list[float]:
        return durations_ms(self.spans, name)

    def counter(self, name: str) -> float:
        return float(self.snapshot["counters"].get(name, 0))

    def stage_of(self, name: str, key: str) -> float:
        return float(self.snapshot["stages"].get(name, {}).get(key, 0.0))

    def sample(self, name: str) -> float:
        values = self.workload.samples.get(name)
        return median(values) if values else 0.0


def _stage_total(snapshot: dict, method: str, suffix: str, key: str = "total_ms") -> float:
    """A method's stage statistic summed over its per-shard twins
    (``exs.rank`` unsharded, ``exs.shard<i>.rank`` sharded)."""
    return sum(
        summary[key]
        for name, summary in snapshot["stages"].items()
        if name == f"{method}.{suffix}"
        or (name.startswith(f"{method}.shard") and name.endswith(f".{suffix}"))
    )


def _timed(fn, repeats: int = 5) -> float:
    """Median wall time of ``fn()`` in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


def embedding(ctx: Context) -> dict:
    encodes = ctx.span_ms("encoder.encode")
    before, after = ctx.encoder_before, ctx.encoder_after
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return {
        "embedding.encode_ms": sum(encodes) / ctx.n_calls,
        "embedding.encode_calls": len(encodes),
        "embedding.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }


def cache(ctx: Context) -> dict:
    if ctx.engine.query_cache is None:
        return {}
    lookups, inserts = ctx.span_ms("cache.lookup"), ctx.span_ms("cache.insert")
    hits, near, misses = (ctx.counter(f"cache.{kind}") for kind in ("hits", "near_hits", "misses"))
    total = (hits + near + misses) or 1.0
    return {
        "cache.lookup_ms": sum(lookups) / len(lookups) if lookups else 0.0,
        "cache.insert_ms": sum(inserts) / len(inserts) if inserts else 0.0,
        "cache.hit_frac": hits / total,
        "cache.near_hit_frac": near / total,
        "cache.miss_frac": misses / total,
        "cache.evictions": ctx.counter("cache.evictions"),
        "cache.bytes": float(ctx.snapshot["gauges"].get("cache.bytes", 0.0)),
        "cache.near_overlap_at_10": ctx.workload.facts.get("near_overlap_at_10", 0.0),
    }


def serving(ctx: Context) -> dict:
    if getattr(ctx.workload, "serving", None) is None:
        return {}
    queue = ctx.stage_of("serving.queue_ms", "p50_ms")
    dispatch = ctx.stage_of("serving.dispatch_ms", "p50_ms")
    # Per request that took a window seat: what is left of submit-to-reply
    # after its queue wait and its window's engine call.  Cache hits never
    # queue; their (sub-millisecond) replies stay in the total.
    queued = ctx.stage_of("serving.queue_ms", "count") or 1.0
    fanout = (
        ctx.stage_of("serving.e2e_ms", "total_ms") - ctx.stage_of("serving.queue_ms", "total_ms")
    ) / queued - ctx.stage_of("serving.dispatch_ms", "mean_ms")
    pooled = [ms for r in ctx.traced for ms in r.latencies_ms]
    lags = [ms for r in ctx.traced for ms in r.samples.get("sched_lag_ms", [])]
    return {
        "serving.queue_ms_p50": queue,
        "serving.dispatch_ms_p50": dispatch,
        "serving.batch_fill_mean": ctx.stage_of("serving.batch_fill", "mean_ms"),
        "serving.windows": ctx.counter("serving.batches"),
        "serving.fanout_ms": fanout,
        "serving.rejected": ctx.counter("serving.rejected"),
        "serving.shed": ctx.counter("serving.shed"),
        "serving.latency_p99_ms": percentile(pooled, 99),
        "bench.sched_lag_p95_ms": percentile(lags, 95) if lags else 0.0,
    }


def engine_and_lifecycle(ctx: Context) -> dict:
    """The engine call against the method call it wraps, and a delta
    against the embedding it starts with."""
    from repro.core import build_relation_embedding

    w, engine = ctx.workload, ctx.engine
    if "delta_ms" not in w.samples:
        return {}
    method = engine.method("exs")
    via_engine, direct = [], []
    for _ in range(5):
        if engine.query_cache is not None:
            w.delta()  # so the engine call takes its miss path, as after a write
        start = time.perf_counter()
        engine.search_batch(w.first_queries, method="exs", k=w.k)
        via_engine.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        method.search_batch(w.first_queries, k=w.k)
        direct.append((time.perf_counter() - start) * 1000.0)
    relation_id = w.delta_ids[0]
    embeds = []
    for version in range(5):
        revised = corpora.revise(w.inputs.relations[relation_id], 10_000 + version)
        start = time.perf_counter()
        build_relation_embedding(relation_id, revised, engine.encoder)
        embeds.append((time.perf_counter() - start) * 1000.0)
    return {
        "engine.self_ms": median(via_engine) - median(direct),
        "lifecycle.delta_embed_ms": median(embeds),
        "lifecycle.delta_apply_ms": ctx.sample("delta_ms") - median(embeds),
        "lifecycle.post_delta_batch_ms": ctx.sample("post_delta_batch_ms"),
    }


def exs_replay(ctx: Context) -> dict:
    """Algorithm 1's steps through ``scan_spec`` → GEMM →
    ``segment_scores`` → ``matches_from_scores`` → sort, each timed
    alone on the workload's own query block, against the whole batch."""
    from repro.linalg import segment_scores

    w, engine = ctx.workload, ctx.engine
    method = engine.method("exs")
    parts = [m for m in method.shard_methods if m is not None] if hasattr(method, "shard_methods") else [method]
    queries = getattr(w, "queries", None) or w.inputs.queries
    queries = queries[:16]
    steps = {name: [] for name in ("encode", "gemm", "segment", "emit", "batch")}
    emitted = flops = moved = 0
    rank_before = _stage_total(engine.metrics.snapshot(), "exs", "rank")
    for _ in range(5):
        start = time.perf_counter()
        block = np.stack([engine.embeddings.encode_query(q) for q in queries])
        steps["encode"].append((time.perf_counter() - start) * 1000.0)
        gemm = segment = emit = 0.0
        emitted = flops = moved = 0
        for part in parts:
            spec = part.scan_spec()
            matrix = spec.matrix
            if matrix is None:
                raise LookupError("scan_spec() carries no in-process matrix")
            typed = np.ascontiguousarray(block.astype(matrix.dtype, copy=False))
            start = time.perf_counter()
            sims = matrix @ typed.T
            gemm += (time.perf_counter() - start) * 1000.0
            start = time.perf_counter()
            scores = segment_scores(
                sims, spec.offsets, spec.weights,
                aggregate=spec.aggregate, top_fraction=spec.top_fraction,
            )
            segment += (time.perf_counter() - start) * 1000.0
            start = time.perf_counter()
            matches = part.matches_from_scores(scores)
            emit += (time.perf_counter() - start) * 1000.0
            emitted += sum(len(fresh) for fresh in matches)
            rows, dim = matrix.shape
            flops += 2 * rows * dim * len(queries)
            moved += (rows * dim + len(queries) * dim + rows * len(queries)) * matrix.itemsize
        steps["gemm"].append(gemm)
        steps["segment"].append(segment)
        steps["emit"].append(emit)
        start = time.perf_counter()
        method.search_batch(queries, k=w.k)
        steps["batch"].append((time.perf_counter() - start) * 1000.0)
    final = engine.metrics.snapshot()
    took = {name: median(values) for name, values in steps.items()}
    # The registry's own rank timer: threshold + sort + cut, summed over the batch.
    took["rank"] = (_stage_total(final, "exs", "rank") - rank_before) / 5
    explained = sum(took[name] for name in ("encode", "gemm", "segment", "emit", "rank"))
    return {
        "exs.batch_ms": took["batch"],
        "exs.encode_ms": took["encode"],
        "exs.emit_ms": took["emit"],
        "exs.rank_ms": took["rank"],
        "exs.matches_emitted": emitted,
        "exs.useful_match_frac": w.k * len(queries) / emitted if emitted else 0.0,
        "exs.single_query_ms": _timed(lambda: method.search(queries[0], k=w.k)),
        "exs.delta_ms": _stage_total(final, "exs", "delta_ms", "mean_ms"),
        "exs.unattributed_frac": 1.0 - explained / took["batch"],
        "linalg.gemm_ms": took["gemm"],
        "linalg.gemm_flops": flops,
        "linalg.gemm_bytes": moved,
        "linalg.segment_scores_ms": took["segment"],
    }


def exec_and_sharding(ctx: Context) -> dict:
    """Backend tasks per call; a scatter waits for its slowest lane."""
    backend = ctx.engine.executor
    registry = backend.metrics.snapshot()
    name = backend.name
    lanes = [s for s in ctx.spans if s["name"] == "exec.lane"]
    slowest = []
    for scatter in (s for s in ctx.spans if s["name"] == "exec.map"):
        per_thread: dict[int, float] = {}
        for lane in lanes:
            if lane["parent"] == scatter["id"]:
                per_thread[lane["thread"]] = per_thread.get(lane["thread"], 0.0) + lane["end"] - lane["start"]
        if per_thread:
            slowest.append(max(per_thread.values()) * 1000.0)
    return {
        "exec.tasks": float(registry["counters"].get(f"exec.{name}.tasks", 0)),
        "exec.busy_ms": sum((s["end"] - s["start"]) * 1000.0 for s in lanes) / ctx.n_calls,
        "exec.queue_ms_p50": registry["stages"].get(f"exec.{name}.queue_ms", {}).get("p50_ms", 0.0),
        "exec.slowest_lane_ms": median(slowest) if slowest else 0.0,
        "sharding.merge_ms": ctx.stage_of("exs.merge", "mean_ms"),
        "sharding.shard_skew": ctx.workload.facts.get("shard_skew", 0.0),
    }


def anns(ctx: Context) -> dict:
    w, engine = ctx.workload, ctx.engine
    if "anns" not in getattr(w, "methods", ()):
        return {}
    method = engine.method("anns")
    budget = method.candidate_budget(engine.embeddings.n_relations)
    retrieve, search, encode, found = [], [], [], []
    for query in w.inputs.queries[:20]:
        start = time.perf_counter()
        vector = engine.embeddings.encode_query(query)
        encode.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        found.append(len(method.retrieve(vector, budget)))
        retrieve.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        method.search(query, k=w.k)
        search.append((time.perf_counter() - start) * 1000.0)
    final = engine.metrics.snapshot()["stages"]
    return {
        "anns.build_s": w.facts["anns_build_s"],
        "anns.retrieve_ms": median(retrieve),
        "anns.group_ms": median(search) - median(retrieve) - median(encode),
        "anns.candidates_per_query": sum(found) / len(found),
        "anns.recall_at_10_vs_exs": w.facts["anns_recall_at_10_vs_exs"],
        "anns.map": w.facts["anns_map"],
        "anns.delta_ms": final.get("anns.delta_ms", {}).get("mean_ms", 0.0),
        "anns.post_delta_query_ms": ctx.sample("anns_post_delta_query_ms"),
        "vectordb.index_probes": ctx.counter("vectordb.index_probes") / ctx.n_calls,
        "vectordb.points_scanned": ctx.counter("vectordb.points_scanned") / ctx.n_calls,
    }


def cts(ctx: Context) -> dict:
    w, engine = ctx.workload, ctx.engine
    if "cts" not in getattr(w, "methods", ()):
        return {}
    method = engine.method("cts")
    vector = engine.embeddings.encode_query(w.inputs.queries[0])
    final = engine.metrics.snapshot()
    return {
        "cts.build_s": w.facts["cts_build_s"],
        "cts.reduce_query_ms": _timed(lambda: method.reduce_query(vector)),
        "cts.route_ms": ctx.stage_of("cts.route", "mean_ms"),
        "cts.scan_ms": ctx.stage_of("cts.scan", "mean_ms"),
        "cts.clusters": method.n_clusters,
        "cts.recall_at_10_vs_exs": w.facts["cts_recall_at_10_vs_exs"],
        "cts.map": w.facts["cts_map"],
        "cts.delta_ms": final["stages"].get("cts.delta_ms", {}).get("mean_ms", 0.0),
        "cts.rebuilds": float(final["counters"].get("cts.rebuilds", 0)),
        "exs.map": w.facts["exs_map"],
    }


def storage(ctx: Context) -> dict:
    w, engine = ctx.workload, ctx.engine
    if "save_ms" not in w.samples:
        return {}
    store = engine.embeddings
    vector_bytes = store.total_vectors * store.dim * np.dtype(engine.dtype).itemsize
    final = engine.metrics.snapshot()["stages"]
    return {
        "storage.save_ms": ctx.sample("save_ms"),
        "storage.snapshot_bytes": w.facts.get("snapshot_bytes", 0.0),
        "storage.bytes_per_vector_byte": w.facts.get("snapshot_bytes", 0.0) / vector_bytes,
        "storage.load_eager_ms": ctx.sample("load_eager_ms"),
        "storage.load_mmap_ms": ctx.sample("load_mmap_ms"),
        "storage.first_query_eager_ms": ctx.sample("first_query_eager_ms"),
        "storage.first_query_mmap_ms": ctx.sample("first_query_mmap_ms"),
        "storage.commit_ms": final.get("storage.commit_ms", {}).get("mean_ms", 0.0),
        "storage.mapped_bytes": w.facts.get("mapped_bytes", 0.0),
    }


def obs_and_harness(ctx: Context) -> dict:
    registry = ctx.engine.metrics
    reference = median([median(r.latencies_ms) for r in ctx.reference])
    traced = median([median(r.latencies_ms) for r in ctx.traced])
    return {
        "obs.snapshot_ms": _timed(registry.snapshot),
        "obs.histogram_samples": sum(s["count"] for s in registry.snapshot()["stages"].values()),
        "bench.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bench.trace_overhead_frac": traced / reference - 1.0,
    }


#: probe -> the metrics it owns (empty when the probe cannot run).
PROBES = {
    embedding: ["embedding.encode_ms", "embedding.encode_calls", "embedding.cache_hit_frac"],
    cache: [
        "cache.lookup_ms", "cache.insert_ms", "cache.hit_frac", "cache.near_hit_frac",
        "cache.miss_frac", "cache.evictions", "cache.bytes", "cache.near_overlap_at_10",
    ],
    serving: [
        "serving.queue_ms_p50", "serving.dispatch_ms_p50", "serving.batch_fill_mean",
        "serving.windows", "serving.fanout_ms", "serving.rejected", "serving.shed",
        "serving.latency_p99_ms", "bench.sched_lag_p95_ms",
    ],
    engine_and_lifecycle: [
        "engine.self_ms", "lifecycle.delta_embed_ms", "lifecycle.delta_apply_ms",
        "lifecycle.post_delta_batch_ms",
    ],
    exs_replay: [
        "exs.batch_ms", "exs.encode_ms", "exs.emit_ms", "exs.rank_ms", "exs.matches_emitted",
        "exs.useful_match_frac", "exs.single_query_ms", "exs.delta_ms", "exs.unattributed_frac",
        "linalg.gemm_ms", "linalg.gemm_flops", "linalg.gemm_bytes", "linalg.segment_scores_ms",
    ],
    exec_and_sharding: [
        "exec.tasks", "exec.busy_ms", "exec.queue_ms_p50", "exec.slowest_lane_ms",
        "sharding.merge_ms", "sharding.shard_skew",
    ],
    anns: [
        "anns.build_s", "anns.retrieve_ms", "anns.group_ms", "anns.candidates_per_query",
        "anns.recall_at_10_vs_exs", "anns.map", "anns.delta_ms", "anns.post_delta_query_ms",
        "vectordb.index_probes", "vectordb.points_scanned",
    ],
    cts: [
        "cts.build_s", "cts.reduce_query_ms", "cts.route_ms", "cts.scan_ms", "cts.clusters",
        "cts.recall_at_10_vs_exs", "cts.map", "cts.delta_ms", "cts.rebuilds", "exs.map",
    ],
    storage: [
        "storage.save_ms", "storage.snapshot_bytes", "storage.bytes_per_vector_byte",
        "storage.load_eager_ms", "storage.load_mmap_ms", "storage.first_query_eager_ms",
        "storage.first_query_mmap_ms", "storage.commit_ms", "storage.mapped_bytes",
    ],
    obs_and_harness: [
        "obs.snapshot_ms", "obs.histogram_samples", "bench.peak_rss_mb", "bench.trace_overhead_frac",
    ],
}


def run_probes(ctx: Context) -> tuple[dict, list[dict]]:
    """Every layer metric by name — a number where the layer was used
    and seen, 0 where this workload bypasses it, ``None`` where the probe
    could not run — plus one ``skipped_layers`` entry per failed probe."""
    layers: dict = {}
    skipped: list[dict] = []
    for probe, names in PROBES.items():
        try:
            values = probe(ctx)
        except Exception as exc:  # a renamed hook must cost one row, not the run
            skipped.append({"probe": probe.__name__, "metrics": names, "reason": repr(exc)})
            values = {name: None for name in names}
        for name in names:
            layers[name] = values.get(name, 0.0)
    return layers, skipped
