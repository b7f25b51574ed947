"""Every workload and metric the ledger knows, by name.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out; ``bench/test_smoke.py`` fails when the two drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 5

WORKLOADS = {
    "exs_many_small": "600 three-row relations, 16-query ExS batches: match emission and ranking dominate, the GEMM is noise",
    "exs_few_large": "60 relations of 400 rows at dim 256: GEMM and segment reduction dominate, emission is noise",
    "exs_sharded_10x": "6000 three-row relations over 4 shards: the 10x federation through scatter, per-shard scans and merge",
    "paper_methods": "the paper's experiment: single queries through ExS, ANNS and CTS on a graded corpus, then deltas through all three",
    "serve_closed": "16 closed-loop clients on serving.submit, cache off: admission, windows, dispatch and fan-out at full windows",
    "serve_open_zipf": "open loop at a fixed rate, Zipf repeats and paraphrases, cache on: two requests in three never reach the scan",
    "lifecycle_rw": "writes beside reads: snapshot save and cold starts, then update_relations before every cached batch",
}

# name, unit, better, bound (share of the parent's median).  These are
# reported by every workload; BENCHMARK.json lists exactly these.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "queries/s", "higher", 0.25),
    ("latency_p50_ms", "ms/call", "lower", 0.25),
    ("index_mb", "MB", "lower", 0.1),
]

# End-to-end in the ledger, but not on every workload: the tail needs 200
# pooled samples, only ``lifecycle_rw`` and ``paper_methods`` write, only
# ``lifecycle_rw`` cold-starts, only ``paper_methods`` has three methods and
# qrels.  The driver's contract wants every end-to-end metric from every
# workload, never 0 and steady, so in BENCHMARK.json these ride in the
# per-layer list (0 where the workload has none); ``python3 -m bench`` and
# ``bench/compare.py`` treat them as end-to-end with the bound given here.
PARTIAL_END_TO_END = [
    ("latency_p95_ms", "ms/call", "lower", 0.25),
    ("delta_p50_ms", "ms/delta", "lower", 0.25),
    ("ttfq_eager_ms", "ms", "lower", 0.25),
    ("ttfq_mmap_ms", "ms", "lower", 0.25),
    ("exs_latency_p50_ms", "ms/query", "lower", 0.25),
    ("anns_latency_p50_ms", "ms/query", "lower", 0.25),
    ("cts_latency_p50_ms", "ms/query", "lower", 0.25),
    ("exs_ndcg_at_10", "score", "higher", 1e-9),
    ("anns_ndcg_at_10", "score", "higher", 1e-9),
    ("cts_ndcg_at_10", "score", "higher", 1e-9),
]

# Must be exactly 0; they are the contract's ``failed`` / ``attempted`` and
# ``correct`` fields, and ``python -m bench`` exits non-zero on either.
GATES = [
    ("failed_frac", "frac", "lower", 0.0),
    ("oracle_mismatch_frac", "frac", "lower", 0.0),
]

# layer, name, unit, better, "end-to-end metric @ workload" it should move.
PER_LAYER = [
    ("embedding", "embedding.encode_ms", "ms/call", "lower", "latency_p50_ms @ serve_open_zipf; delta_p50_ms @ lifecycle_rw"),
    ("embedding", "embedding.encode_calls", "count", "lower", "delta_p50_ms @ lifecycle_rw"),
    ("embedding", "embedding.cache_hit_frac", "frac", "higher", "latency_p50_ms @ serve_open_zipf"),
    ("cache", "cache.lookup_ms", "ms", "lower", "latency_p50_ms @ serve_open_zipf"),
    ("cache", "cache.insert_ms", "ms", "lower", "latency_p95_ms @ serve_open_zipf; latency_p50_ms @ lifecycle_rw"),
    ("cache", "cache.hit_frac", "frac", "higher", "throughput_qps @ serve_open_zipf"),
    ("cache", "cache.near_hit_frac", "frac", "higher", "throughput_qps @ serve_open_zipf"),
    ("cache", "cache.miss_frac", "frac", "lower", "latency_p95_ms @ serve_open_zipf"),
    ("cache", "cache.evictions", "count", "lower", "delta_p50_ms @ lifecycle_rw"),
    ("cache", "cache.bytes", "bytes", "lower", "none (memory)"),
    ("cache", "cache.near_overlap_at_10", "frac", "higher", "none (answer quality of near hits)"),
    ("serving", "serving.queue_ms_p50", "ms", "lower", "latency_p50_ms @ serve_closed"),
    ("serving", "serving.dispatch_ms_p50", "ms", "lower", "latency_p50_ms @ serve_closed"),
    ("serving", "serving.batch_fill_mean", "count", "higher", "throughput_qps @ serve_closed"),
    ("serving", "serving.windows", "count", "lower", "throughput_qps @ serve_closed"),
    ("serving", "serving.fanout_ms", "ms", "lower", "latency_p50_ms @ serve_closed"),
    ("serving", "serving.rejected", "count", "lower", "failed_frac @ serve_*"),
    ("serving", "serving.shed", "count", "lower", "failed_frac @ serve_*"),
    ("serving", "serving.latency_p99_ms", "ms", "lower", "latency_p95_ms @ serve_open_zipf"),
    ("serving", "bench.sched_lag_p95_ms", "ms", "lower", "latency_p95_ms @ serve_open_zipf"),
    ("core.engine", "engine.self_ms", "ms/call", "lower", "latency_p50_ms @ lifecycle_rw"),
    ("core.lifecycle", "lifecycle.delta_embed_ms", "ms", "lower", "delta_p50_ms @ lifecycle_rw"),
    ("core.lifecycle", "lifecycle.delta_apply_ms", "ms", "lower", "delta_p50_ms @ lifecycle_rw, paper_methods"),
    ("core.lifecycle", "lifecycle.post_delta_batch_ms", "ms", "lower", "latency_p50_ms @ lifecycle_rw"),
    ("core.exhaustive", "exs.batch_ms", "ms", "lower", "throughput_qps @ exs_many_small, exs_sharded_10x, serve_closed"),
    ("core.exhaustive", "exs.encode_ms", "ms", "lower", "throughput_qps @ exs_many_small"),
    ("core.exhaustive", "exs.emit_ms", "ms", "lower", "throughput_qps @ exs_many_small, exs_sharded_10x, serve_closed"),
    ("core.exhaustive", "exs.rank_ms", "ms", "lower", "throughput_qps @ exs_many_small, exs_sharded_10x"),
    ("core.exhaustive", "exs.matches_emitted", "count", "lower", "throughput_qps @ exs_many_small"),
    ("core.exhaustive", "exs.useful_match_frac", "frac", "higher", "throughput_qps @ exs_many_small"),
    ("core.exhaustive", "exs.single_query_ms", "ms", "lower", "exs_latency_p50_ms @ paper_methods"),
    ("core.exhaustive", "exs.delta_ms", "ms", "lower", "delta_p50_ms @ lifecycle_rw"),
    ("core.exhaustive", "exs.unattributed_frac", "frac", "lower", "none (what outside timing cannot see)"),
    ("linalg", "linalg.gemm_ms", "ms", "lower", "throughput_qps @ exs_few_large"),
    ("linalg", "linalg.gemm_flops", "flop", "lower", "throughput_qps @ exs_few_large"),
    ("linalg", "linalg.gemm_bytes", "bytes", "lower", "throughput_qps @ exs_few_large"),
    ("linalg", "linalg.segment_scores_ms", "ms", "lower", "throughput_qps @ exs_few_large"),
    ("exec", "exec.tasks", "count", "higher", "latency_p50_ms @ exs_sharded_10x"),
    ("exec", "exec.busy_ms", "ms", "lower", "latency_p50_ms @ exs_sharded_10x"),
    ("exec", "exec.queue_ms_p50", "ms", "lower", "latency_p50_ms @ exs_sharded_10x"),
    ("exec", "exec.slowest_lane_ms", "ms", "lower", "latency_p50_ms @ exs_sharded_10x"),
    ("core.sharding", "sharding.merge_ms", "ms", "lower", "latency_p50_ms @ exs_sharded_10x"),
    ("core.sharding", "sharding.shard_skew", "ratio", "lower", "latency_p50_ms @ exs_sharded_10x"),
    ("core.anns", "anns.build_s", "s", "lower", "setup_s @ paper_methods"),
    ("core.anns", "anns.retrieve_ms", "ms", "lower", "anns_latency_p50_ms @ paper_methods"),
    ("core.anns", "anns.group_ms", "ms", "lower", "anns_latency_p50_ms @ paper_methods"),
    ("core.anns", "anns.candidates_per_query", "count", "lower", "anns_latency_p50_ms @ paper_methods"),
    ("core.anns", "anns.recall_at_10_vs_exs", "frac", "higher", "anns_ndcg_at_10 @ paper_methods"),
    ("core.anns", "anns.map", "score", "higher", "anns_ndcg_at_10 @ paper_methods"),
    ("core.anns", "anns.delta_ms", "ms", "lower", "delta_p50_ms @ paper_methods"),
    ("core.anns", "anns.post_delta_query_ms", "ms", "lower", "none (index rebuild a delta defers to the next ANNS query)"),
    ("vectordb", "vectordb.index_probes", "count", "lower", "anns_latency_p50_ms @ paper_methods"),
    ("vectordb", "vectordb.points_scanned", "count", "lower", "cts_latency_p50_ms @ paper_methods"),
    ("core.cts", "cts.build_s", "s", "lower", "setup_s @ paper_methods"),
    ("core.cts", "cts.reduce_query_ms", "ms", "lower", "cts_latency_p50_ms @ paper_methods"),
    ("core.cts", "cts.route_ms", "ms", "lower", "cts_latency_p50_ms @ paper_methods"),
    ("core.cts", "cts.scan_ms", "ms", "lower", "cts_latency_p50_ms @ paper_methods"),
    ("core.cts", "cts.clusters", "count", "higher", "cts_latency_p50_ms @ paper_methods"),
    ("core.cts", "cts.recall_at_10_vs_exs", "frac", "higher", "cts_ndcg_at_10 @ paper_methods"),
    ("core.cts", "cts.map", "score", "higher", "cts_ndcg_at_10 @ paper_methods"),
    ("core.cts", "cts.delta_ms", "ms", "lower", "delta_p50_ms @ paper_methods"),
    ("core.cts", "cts.rebuilds", "count", "lower", "delta_p50_ms @ paper_methods"),
    ("core.exhaustive", "exs.map", "score", "higher", "exs_ndcg_at_10 @ paper_methods"),
    ("storage", "storage.save_ms", "ms", "lower", "latency_p95_ms @ lifecycle_rw"),
    ("storage", "storage.snapshot_bytes", "bytes", "lower", "ttfq_eager_ms @ lifecycle_rw"),
    ("storage", "storage.bytes_per_vector_byte", "ratio", "lower", "ttfq_eager_ms @ lifecycle_rw"),
    ("storage", "storage.load_eager_ms", "ms", "lower", "ttfq_eager_ms @ lifecycle_rw"),
    ("storage", "storage.load_mmap_ms", "ms", "lower", "ttfq_mmap_ms @ lifecycle_rw"),
    ("storage", "storage.first_query_eager_ms", "ms", "lower", "ttfq_eager_ms @ lifecycle_rw"),
    ("storage", "storage.first_query_mmap_ms", "ms", "lower", "ttfq_mmap_ms @ lifecycle_rw"),
    ("storage", "storage.commit_ms", "ms", "lower", "latency_p95_ms @ lifecycle_rw"),
    ("storage", "storage.mapped_bytes", "bytes", "lower", "ttfq_mmap_ms @ lifecycle_rw"),
    ("obs", "obs.snapshot_ms", "ms", "lower", "throughput_qps @ serve_closed"),
    ("obs", "obs.histogram_samples", "count", "lower", "throughput_qps @ serve_closed"),
    ("harness", "bench.peak_rss_mb", "MB", "lower", "none (memory)"),
    ("harness", "bench.trace_overhead_frac", "frac", "lower", "none (cost of the wrappers)"),
]


_LEDGER_END_TO_END = END_TO_END + PARTIAL_END_TO_END + GATES

# What a ``--trace 1`` run reports, in BENCHMARK.json order: name, unit, better.
_DRIVER_PER_LAYER = [(name, unit, better) for _, name, unit, better, _ in PER_LAYER] + [
    (name, unit, better) for name, unit, better, _ in PARTIAL_END_TO_END
]


def units() -> dict[str, str]:
    """Unit of every metric the ledger can print."""
    return {name: unit for name, unit, _, _ in _LEDGER_END_TO_END} | {
        name: unit for name, unit, _ in _DRIVER_PER_LAYER
    }


def bounds() -> dict[str, float]:
    return {name: bound for name, _, _, bound in _LEDGER_END_TO_END}


def directions() -> dict[str, str]:
    return {name: better for name, _, better in _DRIVER_PER_LAYER} | {
        name: better for name, _, better, _ in _LEDGER_END_TO_END
    }


def per_layer_names() -> list[str]:
    return [name for name, _, _ in _DRIVER_PER_LAYER]


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in _DRIVER_PER_LAYER
        ],
    }
