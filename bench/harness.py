"""Run one workload and turn what it measured into named metrics.

An untraced run gives the end-to-end numbers: set-up (repeated while it
is cheap, reported as a median), then repeats of a fixed operation count
until they have taken ``--seconds``, then the oracle check.  A traced run arms the timing wrappers for its repeats and gives
the per-layer numbers; end-to-end numbers never come from it.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench import catalog, layers
from bench.stats import grouped, median, percentile, quartiles, supports_percentile
from bench.trace import Tracer
from bench.workloads import DELTA_GROUP, WORKLOADS

RESULTS = Path(__file__).resolve().parent / "results"

#: Set-up repeats per run: up to three, fewer once this many seconds went.
MAX_SETUPS = 3
SETUP_BUDGET_S = 3.0
MIN_REPEATS = 3


UNITS = catalog.units()


def _metric(name: str, value, values=None) -> dict:
    """One reported number, with how many per-stretch values (repeats,
    delta groups, cold starts, set-ups) stand behind it and their quartiles."""
    entry = {"value": value, "unit": UNITS[name]}
    if values:
        entry["samples"] = len(values)
        entry["quartiles"] = list(quartiles(values))
    return entry


def _prepare(name: str, seed: int, smoke: bool, tracer: Tracer | None, setups: int):
    """Set the workload up ``setups`` times at most (fresh inputs, encoder
    and engine each time) and keep the last; returns it with the times."""
    times: list[float] = []
    workload = None
    while True:
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](seed, smoke=smoke, tracer=tracer)
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        times.append(time.perf_counter() - start)
        if len(times) >= setups or sum(times) >= SETUP_BUDGET_S:
            return workload, times


def _repeats(workload, seconds: float, at_least: int) -> list:
    """Repeats until they have taken ``seconds``.  The collector stays on,
    but every repeat starts from a collected heap, so where its pauses fall
    does not depend on what ran before."""
    done = []
    while len(done) < at_least or sum(r.wall_s for r in done) < seconds:
        gc.collect()
        done.append(workload.repeat())
    return done


def measure(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    began = time.perf_counter()
    workload, setup_times = _prepare(name, seed, smoke, None, 1 if smoke else MAX_SETUPS)
    try:
        repeats = _repeats(workload, seconds, 1 if smoke else MIN_REPEATS)
        workload.check()
        workload.finish()
        result = _end_to_end(workload, repeats, setup_times)
    finally:
        workload.close()
    result.update(workload=name, seed=seed, seconds=seconds, wall_s=time.perf_counter() - began)
    return result


def _end_to_end(workload, repeats: list, setup_times: list[float]) -> dict:
    """Timings are reported from the quietest stretch of the run: the
    repeat with the lowest median latency, the repeat with the highest
    rate, the group of deltas with the lowest median, the fastest cold
    start.  The machines this runs on stall for seconds at a time, a stall
    only ever adds time, and a slower program is slower in every stretch.
    The quartiles kept beside each value say how far the stretches spread."""
    medians = [median(r.latencies_ms) for r in repeats]
    rates = [r.queries / r.wall_s for r in repeats]
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    out = {
        "setup_s": _metric("setup_s", median(setup_times), setup_times),
        "throughput_qps": _metric("throughput_qps", max(rates), rates),
        "latency_p50_ms": _metric("latency_p50_ms", min(medians), medians),
        "failed_frac": _metric("failed_frac", failed / attempted),
        "oracle_mismatch_frac": _metric(
            "oracle_mismatch_frac", workload.mismatched / max(1, workload.checked)
        ),
        "index_mb": _metric("index_mb", workload.facts["index_bytes"] / 1e6),
    }
    out.update(_partial_metrics(workload, repeats))
    return {
        "end_to_end": out,
        "attempted": attempted,
        "failed": failed,
        "checked": workload.checked,
        "mismatched": workload.mismatched,
        "repeats": len(repeats),
    }


def _partial_metrics(workload, repeats: list) -> dict:
    """The tail, which needs ten samples beyond it (200 pooled) to mean
    anything; deltas
    and cold starts, where the workload makes them; per-method latency and
    quality, where it has methods."""
    pooled = [ms for r in repeats for ms in r.latencies_ms]
    p95 = _metric(
        "latency_p95_ms", percentile(pooled, 95), [percentile(r.latencies_ms, 95) for r in repeats]
    )
    p95["pooled_samples"] = len(pooled)
    p95["supported"] = supports_percentile(len(pooled), 95)
    out = {"latency_p95_ms": p95}
    if "delta_ms" in workload.samples:
        deltas = grouped(workload.samples["delta_ms"], DELTA_GROUP)
        out["delta_p50_ms"] = _metric("delta_p50_ms", min(deltas), deltas)
    for name in ("ttfq_eager_ms", "ttfq_mmap_ms"):
        if name in workload.samples:
            out[name] = _metric(name, min(workload.samples[name]), workload.samples[name])
    for method in getattr(workload, "methods", ()):
        medians = [median(r.samples[f"{method}_ms"]) for r in repeats]
        out[f"{method}_latency_p50_ms"] = _metric(f"{method}_latency_p50_ms", min(medians), medians)
        out[f"{method}_ndcg_at_10"] = _metric(
            f"{method}_ndcg_at_10", workload.facts[f"{method}_ndcg_at_10"]
        )
    return out


def trace_run(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced run: every per-layer metric of one workload, the span
    self-time table, and the span file."""
    began = time.perf_counter()
    tracer = Tracer()
    workload, _ = _prepare(name, seed, smoke, tracer, 1)
    try:
        reference = [workload.repeat()]
        registry = workload.engine.metrics
        # Hooks a later change may drop: without them the registry numbers
        # include warm-up and the encoder hit share reads 0.
        getattr(registry, "reset", lambda: None)()
        cache_info = getattr(workload.engine.encoder, "cache_info", dict)
        encoder_before = cache_info()
        tracer.enabled = True
        traced = _repeats(workload, seconds / 4, 1)
        ctx = layers.Context(
            workload=workload,
            spans=list(tracer.spans),
            snapshot=registry.snapshot(),
            reference=reference,
            traced=traced,
            encoder_before=encoder_before,
            encoder_after=cache_info(),
        )
        workload.check()
        workload.finish()
        tracer.enabled = False
        table = tracer.self_time_table()
        values, skipped = layers.run_probes(ctx)
        values.update(
            {metric: entry["value"] for metric, entry in _partial_metrics(workload, reference).items()}
        )
    finally:
        workload.close()
    path = RESULTS / f"trace-{name}.json"
    tracer.write(path)
    return {
        "workload": name,
        "seed": seed,
        "per_layer": {
            metric: {"value": values.get(metric, 0.0), "unit": UNITS[metric]}
            for metric in catalog.per_layer_names()
        },
        "skipped_layers": skipped,
        "layer_table": table,
        "spans": len(tracer.spans),
        "span_file": str(path.relative_to(RESULTS.parent.parent)),
        "attempted": sum(r.attempted for r in traced),
        "failed": sum(r.failed for r in traced),
        "checked": workload.checked,
        "mismatched": workload.mismatched,
        "wall_s": time.perf_counter() - began,
    }


def envelope(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha or "unknown",
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "argv": sys.argv[1:],
    }
