"""Serving bench: sustained QPS and p99 under concurrent traffic.

Two synthetic load shapes drive the async front end over the same
engine and print sustained QPS and latency percentiles:

* **closed loop** — N clients, each submitting its next query only
  after its previous answer arrives: sustained throughput at bounded
  concurrency, the shape capacity planning quotes;
* **open loop** — the whole offered load arrives up front, arrivals
  independent of completions: the overload shape where coordinated
  omission hides nothing.

The open-loop run compares two front ends at *equal offered load* and
equal executor width over the same indexed engine:

* micro-batched (:class:`ServingEngine`): concurrent submits coalesce
  into ``search_batch`` windows — one read-lock acquisition, one
  encode, one fused GEMM per window;
* one-query-at-a-time (:class:`OneAtATimeFrontEnd` below): the
  counterfactual server without a batcher, dispatching every request
  the moment it arrives as one ``engine.search`` call.

The acceptance guard asserts micro-batching sustains >= 2x the
one-at-a-time QPS (skipped below 4 cores: fewer cores starve the
baseline's dispatch pool and the comparison stops being about
coalescing).  Typical margins are 10-40x
— the coalesced window amortizes the whole scan, while the baseline
pays a per-relation scoring loop per request — so CI noise cannot
flip the bound.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import DiscoveryEngine
from repro.core.results import SearchResult
from repro.datamodel.relation import Federation, Relation
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder

#: Few-but-large relations: the paper's workload shape (relations carry
#: many cell values), where the scan dominates and coalescing pays.
N_RELATIONS = 60
ROWS_PER_RELATION = 150
DIM = 96
K = 10
N_REQUESTS = 256
DISPATCH_WORKERS = 4

WORDS = [
    "vaccine", "league", "gdp", "galaxy", "sonata", "glacier",
    "enzyme", "harbor", "tariff", "nebula", "tempo", "monsoon",
]

#: 24 distinct query texts cycled by the load generators; repeats are
#: realistic serving traffic and keep the encoder cache honest.
QUERIES = [f"{WORDS[i % len(WORDS)]} {WORDS[(i + 5) % len(WORDS)]}" for i in range(24)]

#: One encoder cache across every engine below, so each variant times
#: serving dispatch + scan work rather than first-touch hashing.
_ENCODER = CachingEncoder(SemanticHashEncoder(dim=DIM), max_size=2_000_000)


def serving_relation(slot: int) -> Relation:
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure"],
        [
            [f"{WORDS[(slot + r) % len(WORDS)]} item {slot} {r}", str(100 * slot + r)]
            for r in range(ROWS_PER_RELATION)
        ],
        caption=f"{WORDS[slot % len(WORDS)]} {WORDS[(slot + 5) % len(WORDS)]} table {slot}",
    )


@pytest.fixture(scope="module")
def serving_fed() -> Federation:
    return Federation.from_relations([serving_relation(s) for s in range(N_RELATIONS)])


def make_engine(federation: Federation) -> DiscoveryEngine:
    """A fresh engine per variant: isolated metrics, shared embeddings."""
    engine = DiscoveryEngine(encoder=_ENCODER)
    engine.index(federation)
    engine.method("exs")
    engine.search_batch(QUERIES, method="exs", k=K)  # warm cache + BLAS pools
    engine.search(QUERIES[0], method="exs", k=K)
    return engine


class OneAtATimeFrontEnd:
    """The no-batching counterfactual: every request dispatches alone.

    Same asyncio intake and executor width as :class:`ServingEngine`,
    no coalescing — each submit runs one ``engine.search`` (which takes
    the reader lock itself), exactly what a server without a
    micro-batcher would do.
    """

    def __init__(self, engine: DiscoveryEngine, dispatch_workers: int) -> None:
        self.engine = engine
        # repro-lint: disable=RL005 -- the raw pool IS the counterfactual: this baseline models a server without the repro.exec backend
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="one-at-a-time"
        )

    async def submit(self, query: str, method: str = "exs", k: int = K) -> SearchResult:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, lambda: self.engine.search(query, method=method, k=k)
        )

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


async def timed_submit(front, query: str, latencies: "list[float]") -> None:
    start = time.perf_counter()
    await front.submit(query, method="exs", k=K)
    latencies.append((time.perf_counter() - start) * 1000.0)


async def closed_loop(front, n_clients: int, per_client: int, latencies: "list[float]") -> float:
    """N sequential clients in parallel; returns the makespan (s)."""

    async def client(cid: int) -> None:
        for i in range(per_client):
            await timed_submit(front, QUERIES[(cid + i) % len(QUERIES)], latencies)

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(n_clients)))
    return time.perf_counter() - start


async def open_loop(front, n_requests: int, latencies: "list[float]") -> float:
    """The whole offered load arrives up front; returns the makespan (s)."""
    start = time.perf_counter()
    tasks = [
        asyncio.create_task(timed_submit(front, QUERIES[i % len(QUERIES)], latencies))
        for i in range(n_requests)
    ]
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


def pctile(latencies: "list[float]", p: float) -> float:
    ordered = sorted(latencies)
    rank = max(1, round(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def test_closed_loop_sustained_qps(serving_fed):
    """16 sequential clients; publishes sustained QPS + p50/p99."""
    engine = make_engine(serving_fed)
    latencies: "list[float]" = []

    async def run() -> float:
        async with engine.serving(window_ms=2.0, max_batch=32, max_queue=4096) as serving:
            return await closed_loop(serving, 16, 16, latencies)

    elapsed = asyncio.run(run())
    snap = engine.metrics.snapshot()
    assert snap["counters"]["serving.completed"] == 16 * 16
    fill_mean = snap["stages"]["serving.batch_fill"]["mean_ms"]
    assert fill_mean > 1.0, "closed-loop windows never coalesced"
    qps = len(latencies) / max(elapsed, 1e-9)
    p50, p99 = pctile(latencies, 50), pctile(latencies, 99)
    print(
        f"\nserving closed loop: 16 clients x 16 reqs -> {qps:.0f} q/s, "
        f"p50 {p50:.2f} ms, p99 {p99:.2f} ms, mean fill {fill_mean:.1f}"
    )


def test_open_loop_microbatching_speedup(serving_fed):
    """The acceptance guard: >= 2x QPS over one-at-a-time dispatch."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for the one-at-a-time dispatch pool to be fair")

    results = {}

    engine = make_engine(serving_fed)
    batched_lat: "list[float]" = []

    async def run_batched() -> float:
        async with engine.serving(
            window_ms=2.0, max_batch=32, max_queue=4096, dispatch_workers=DISPATCH_WORKERS
        ) as serving:
            return await open_loop(serving, N_REQUESTS, batched_lat)

    elapsed = asyncio.run(run_batched())
    snap = engine.metrics.snapshot()
    fill_mean = snap["stages"]["serving.batch_fill"]["mean_ms"]
    results["batched"] = {
        "qps": N_REQUESTS / max(elapsed, 1e-9),
        "p99_ms": pctile(batched_lat, 99),
        "fill": fill_mean,
        "windows": snap["counters"]["serving.batches"],
    }

    baseline_engine = make_engine(serving_fed)
    front = OneAtATimeFrontEnd(baseline_engine, dispatch_workers=DISPATCH_WORKERS)
    singleton_lat: "list[float]" = []
    try:
        elapsed = asyncio.run(open_loop(front, N_REQUESTS, singleton_lat))
    finally:
        front.shutdown()
    results["singleton"] = {
        "qps": N_REQUESTS / max(elapsed, 1e-9),
        "p99_ms": pctile(singleton_lat, 99),
    }

    speedup = results["batched"]["qps"] / max(results["singleton"]["qps"], 1e-9)
    print(
        f"\nserving open loop ({N_REQUESTS} offered): "
        f"batched {results['batched']['qps']:.0f} q/s "
        f"(p99 {results['batched']['p99_ms']:.1f} ms, {results['batched']['windows']} windows, "
        f"mean fill {results['batched']['fill']:.1f}), "
        f"one-at-a-time {results['singleton']['qps']:.0f} q/s "
        f"(p99 {results['singleton']['p99_ms']:.1f} ms), speedup {speedup:.1f}x"
    )
    assert results["batched"]["fill"] > 4.0, "open-loop windows never coalesced"
    assert speedup >= 2.0, f"micro-batching only {speedup:.2f}x one-at-a-time dispatch"
