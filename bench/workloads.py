"""The seven workloads, driven through the engine's public API only.

Each workload is one federation shape plus one traffic shape.  ``setup``
builds everything a user would have built before the first request
(corpus, index, method builds, one warm pass); ``repeat`` runs a fixed
number of calls and times each from outside; ``check`` compares the
answers of the last repeat with the oracle.

Engines are built with explicit ``executor=``, ``query_cache=`` and
``sanitize=False`` so no ``REPRO_*`` environment variable leaks in.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import DiscoveryEngine
from repro.embedding import CachingEncoder, SemanticHashEncoder
from repro.errors import DeadlineExceeded, QueueFull, RateLimited
from repro.eval.metrics import average_precision, ndcg_at_k

from bench import corpora, oracle
from bench.trace import TimingCache, TimingEncoder, TimingInlineBackend, TimingThreadBackend, Tracer

SCRATCH = Path(__file__).resolve().parent / "results" / "scratch"

# Op counts per repeat are fixed (about a second of work each on the 2-core
# reference box), so sample counts per repeat never change between commits;
# the harness repeats until ``--seconds`` have passed.
FULL = {
    "exs_many_small": dict(relations=600, rows=3, batches=64),
    "exs_few_large": dict(relations=60, rows=400, batches=100),
    "exs_sharded_10x": dict(relations=6000, rows=3, batches=4),
    "paper_methods": dict(tables=40, queries=60),
    "serve_closed": dict(tables=600, queries=240, requests=600),
    "serve_open_zipf": dict(tables=600, queries=240, requests=240, rate=150.0),
    "lifecycle_rw": dict(tables=600, queries=240, pairs=20),
}
SMOKE = {
    "exs_many_small": dict(relations=60, rows=3, batches=3),
    "exs_few_large": dict(relations=6, rows=40, batches=3),
    "exs_sharded_10x": dict(relations=60, rows=3, batches=3),
    "paper_methods": dict(tables=16, queries=8),
    "serve_closed": dict(tables=40, queries=24, requests=64),
    "serve_open_zipf": dict(tables=40, queries=24, requests=64, rate=150.0),
    "lifecycle_rw": dict(tables=40, queries=24, pairs=5),
}

#: Deltas are timed one by one and summarized in groups of this many.
DELTA_GROUP = 5

REFUSALS = (QueueFull, DeadlineExceeded, RateLimited)


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


@dataclass
class Repeat:
    """What one repeat measured: a latency per call, the queries those
    calls answered, the wall time they took, and named side samples."""

    latencies_ms: list[float]
    queries: int
    wall_s: float
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + self.failed


class Workload:
    name = ""
    dim = 128
    shards = 1
    executor = "inline"
    cache = False
    k = 10

    def __init__(self, seed: int, smoke: bool = False, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.size = (SMOKE if smoke else FULL)[self.name]
        self.traced = tracer is not None
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = random.Random(seed)
        self.engine: DiscoveryEngine | None = None
        self.backends: list = []
        self.version = 0
        self.checked = 0
        self.mismatched = 0
        self.samples: dict[str, list[float]] = {}
        self.facts: dict[str, float] = {}

    # -- construction ------------------------------------------------------

    def make_engine(self, wrapped: bool | None = None) -> DiscoveryEngine:
        """A fresh engine with this workload's configuration; in a traced
        run the encoder, cache and backend are the timing versions."""
        wrapped = self.traced if wrapped is None else wrapped
        encoder = CachingEncoder(SemanticHashEncoder(dim=self.dim))
        executor, cache = self.executor, self.cache
        if wrapped:
            encoder = TimingEncoder(encoder, self.tracer)
            if self.executor == "thread":
                executor = TimingThreadBackend(self.tracer)
            else:
                executor = TimingInlineBackend(self.tracer)
            self.backends.append(executor)
            if self.cache:
                cache = TimingCache(self.tracer)
        return DiscoveryEngine(
            encoder=encoder,
            shards=self.shards,
            executor=executor,
            query_cache=cache,
            sanitize=False,
        )

    def make_inputs(self) -> corpora.Inputs:
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first measured call (timed as ``setup_s``)."""
        self.inputs = self.make_inputs()
        self.engine = self.make_engine()
        self.engine.index(self.inputs.federation)
        self.build_methods()
        self.delta_ids = list(self.inputs.relations)
        self.rng.shuffle(self.delta_ids)
        self.first_queries = self.inputs.queries[:8]
        self.warm_up()
        gc.collect()
        gauges = self.engine.metrics.snapshot()["gauges"]
        self.facts["index_bytes"] = gauges.get("engine.index_bytes", 0.0)
        sizes = [v for name, v in gauges.items() if name.startswith("engine.shard_sizes.")]
        self.facts["shard_skew"] = max(sizes) / (sum(sizes) / len(sizes)) if sizes else 0.0

    def build_methods(self) -> None:
        self.engine.method("exs")

    def warm_up(self) -> None:
        self.repeat()

    def repeat(self) -> Repeat:
        raise NotImplementedError

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        for backend in self.backends:
            backend.close()
        self.backends.clear()
        shutil.rmtree(SCRATCH / f"{self.name}-{os.getpid()}", ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # absent, or another run's snapshots are still in it

    def call(self):
        """The span around one user-visible call."""
        return self.tracer.span("call", new_request=True)

    # -- correctness -------------------------------------------------------

    def verify(self, answers, embeddings=None, limit: int | None = None) -> None:
        """Compare ExS answers (SearchResults) with the oracle."""
        embeddings = embeddings if embeddings is not None else self.engine.embeddings
        if limit is None:
            limit = 16 if embeddings.total_vectors < 30000 else 4
        for answer in list(answers)[:limit]:
            scores = oracle.exs_scores(embeddings, answer.query)
            self.checked += 1
            if not oracle.agrees(answer, scores, self.k):
                self.mismatched += 1

    def check(self) -> None:
        """Verify the last repeat's answers (untimed)."""
        self.verify(self.last_answers)

    # -- writes and cold starts (the workloads that have them call these) ---

    def cold_start_cycle(self) -> None:
        """``save_index``, then a fresh engine to its first answer, eager
        and mapped.  The cold engines share nothing with the live one."""
        directory = SCRATCH / f"{self.name}-{os.getpid()}"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "snapshot"
        shutil.rmtree(path, ignore_errors=True)
        gc.collect()
        with self.tracer.span("save_index", new_request=True):
            start = time.perf_counter()
            self.engine.save_index(path)
            self.samples.setdefault("save_ms", []).append(_ms_since(start))
        on_disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        self.facts["snapshot_bytes"] = float(on_disk)
        for mode, mmap in (("eager", False), ("mmap", True)):
            cold = self.make_engine(wrapped=False)
            gc.collect()
            try:
                with self.tracer.span("cold_start", new_request=True):
                    start = time.perf_counter()
                    with self.tracer.span("load_index"):
                        cold.load_index(path, mmap=mmap)
                    loaded = time.perf_counter()
                    answers = cold.search_batch(self.first_queries, method="exs", k=self.k)
                    done = time.perf_counter()
                self.samples.setdefault(f"load_{mode}_ms", []).append((loaded - start) * 1000.0)
                self.samples.setdefault(f"first_query_{mode}_ms", []).append((done - loaded) * 1000.0)
                self.samples.setdefault(f"ttfq_{mode}_ms", []).append((done - start) * 1000.0)
                if mmap:
                    gauges = cold.metrics.snapshot()["gauges"]
                    self.facts["mapped_bytes"] = gauges.get("storage.mapped_bytes", 0.0)
                if len(self.samples[f"ttfq_{mode}_ms"]) == 1:
                    self.verify(answers, embeddings=cold.embeddings, limit=2)
            finally:
                cold.close()
        shutil.rmtree(path, ignore_errors=True)

    def delta(self) -> None:
        """One ``update_relations`` of one revised relation; every tenth
        is a remove/add pair instead, so the federation keeps its size."""
        self.version += 1
        relation_id = self.delta_ids[self.version % len(self.delta_ids)]
        revised = corpora.revise(self.inputs.relations[relation_id], self.version)
        with self.tracer.span("engine.update_relations", new_request=True):
            start = time.perf_counter()
            if self.version % 10 == 0:
                self.engine.remove_relations([relation_id])
                self.engine.add_relations({relation_id: revised})
            else:
                self.engine.update_relations({relation_id: revised})
            self.samples.setdefault("delta_ms", []).append(_ms_since(start))

    def finish(self) -> None:
        """Whatever the workload does once, after its repeats are checked."""


class ExsBatch(Workload):
    """``engine.search_batch(16 queries, method="exs", k=20)`` in a loop."""

    k = 20

    def make_inputs(self) -> corpora.Inputs:
        return corpora.synthetic_inputs(self.seed, self.size["relations"], self.size["rows"])

    def repeat(self) -> Repeat:
        queries, latencies = self.inputs.queries, []
        begin = time.perf_counter()
        for _ in range(self.size["batches"]):
            with self.call():
                start = time.perf_counter()
                self.last_answers = self.engine.search_batch(queries, method="exs", k=self.k)
                latencies.append(_ms_since(start))
        wall = time.perf_counter() - begin
        return Repeat(latencies, len(queries) * len(latencies), wall)


class ExsManySmall(ExsBatch):
    name = "exs_many_small"
    dim = 64


class ExsFewLarge(ExsBatch):
    name = "exs_few_large"
    dim = 256


class ExsSharded10x(ExsBatch):
    name = "exs_sharded_10x"
    dim = 64
    shards = 4
    executor = "thread"


class PaperMethods(Workload):
    """Table 4's protocol: every query alone through each method."""

    name = "paper_methods"
    methods = ("exs", "anns", "cts")

    def make_inputs(self) -> corpora.Inputs:
        return corpora.wikitables_inputs(self.seed, self.size["tables"], self.size["queries"])

    def build_methods(self) -> None:
        for method in self.methods:
            start = time.perf_counter()
            self.engine.method(method)
            self.facts[f"{method}_build_s"] = time.perf_counter() - start

    def repeat(self) -> Repeat:
        latencies: list[float] = []
        per_method = {method: [] for method in self.methods}
        self.answers = {method: [] for method in self.methods}
        begin = time.perf_counter()
        for query in self.inputs.queries:
            for method in self.methods:
                with self.call():
                    start = time.perf_counter()
                    answer = self.engine.search(query, method=method, k=self.k)
                    elapsed = _ms_since(start)
                latencies.append(elapsed)
                per_method[method].append(elapsed)
                self.answers[method].append(answer)
        wall = time.perf_counter() - begin
        samples = {f"{method}_ms": values for method, values in per_method.items()}
        return Repeat(latencies, len(latencies), wall, samples=samples)

    def check(self) -> None:
        """Every ExS answer against the oracle; then each method's quality
        against the qrels and its overlap with ExS's top ten."""
        self.verify(self.answers["exs"], limit=len(self.answers["exs"]))
        exs_top = [set(answer.relation_ids()) for answer in self.answers["exs"]]
        for method in self.methods:
            ndcg, ap, recall = [], [], []
            for answer, truth in zip(self.answers[method], exs_top):
                grades = self.inputs.qrels.judgments(answer.query).as_dict()
                ranking = answer.relation_ids()
                ndcg.append(ndcg_at_k(ranking, grades, 10))
                ap.append(average_precision(ranking, grades))
                recall.append(len(truth & set(ranking)) / len(truth) if truth else 1.0)
            self.facts[f"{method}_ndcg_at_10"] = sum(ndcg) / len(ndcg)
            self.facts[f"{method}_map"] = sum(ap) / len(ap)
            self.facts[f"{method}_recall_at_10_vs_exs"] = sum(recall) / len(recall)

    def after_delta(self) -> None:
        """One query through ExS and CTS after every delta."""
        query = self.inputs.queries[self.version % len(self.inputs.queries)]
        start = time.perf_counter()
        self.last_answers = [self.engine.search(query, method="exs", k=self.k)]
        self.engine.search(query, method="cts", k=self.k)
        self.samples.setdefault("post_delta_batch_ms", []).append(_ms_since(start))

    def finish(self) -> None:
        """Phase B: deltas through all three indexes, an ExS and a CTS read
        after each.  They come after the repeats because ANNS defers its
        index rebuild to the next ANNS query, which then takes seconds —
        too long to pay per delta inside the run's time cap, too large to
        leave unmeasured: a traced run asks ANNS once, at the end.  Fifteen
        deltas keep CTS's drift under its re-clustering threshold, which
        costs seconds when it trips."""
        for _ in range(3 * DELTA_GROUP):
            self.delta()
            self.after_delta()
        self.verify(self.last_answers)
        if self.traced:
            start = time.perf_counter()
            self.engine.search(self.inputs.queries[0], method="anns", k=self.k)
            self.samples["anns_post_delta_query_ms"] = [_ms_since(start)]


class Serving(Workload):
    """Coroutine clients on one event loop in front of ``serving.submit``."""

    executor = "thread"

    def make_inputs(self) -> corpora.Inputs:
        return corpora.wikitables_inputs(self.seed, self.size["tables"], self.size["queries"])

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.serving = None
        super().setup()

    def warm_up(self) -> None:
        # Queries a near-duplicate probe could confuse with one another are
        # dropped, so a near hit can only come from a query's own paraphrase.
        self.queries = corpora.distinct_queries(
            self.inputs.queries, self.engine.encoder.encode_one, threshold=0.97
        )
        workers = min(2, os.cpu_count() or 1)
        options = dict(window_ms=2.0, max_batch=32, max_queue=4096, dispatch_workers=workers)
        if self.traced:
            backend = TimingThreadBackend(
                self.tracer, task_name="serving.window", detached=True, max_workers=workers
            )
            self.backends.append(backend)
            options["executor"] = backend
        self.serving = self.engine.serving(**options)
        super().warm_up()

    def repeat(self) -> Repeat:
        return self.loop.run_until_complete(self.traffic())

    async def traffic(self) -> Repeat:
        raise NotImplementedError

    async def request(self, query: str, due: float, out: Repeat) -> None:
        """One ``submit``; latency counts from ``due``, not from the send."""
        with self.call():
            try:
                answer = await self.serving.submit(query, method="exs", k=self.k)
            except REFUSALS:
                out.failed += 1
                return
        out.latencies_ms.append(_ms_since(due))
        self.served[query] = answer

    def check(self) -> None:
        """Served answers against a direct engine call at the same
        generation, and a sample of them against the oracle."""
        served = list(self.served.values())
        direct = self.engine.search_batch([a.query for a in served], method="exs", k=self.k)
        for answer, want in zip(served, direct):
            self.checked += 1
            same = answer.relation_ids() == want.relation_ids() and all(
                abs(a.score - b.score) <= oracle.TOLERANCE for a, b in zip(answer, want)
            )
            self.mismatched += 0 if same else 1
        self.verify(served, limit=6)

    def close(self) -> None:
        if self.serving is not None:
            self.loop.run_until_complete(self.serving.drain())
        self.loop.close()
        super().close()


class ServeClosed(Serving):
    """16 clients, each sending its next request when the last returned."""

    name = "serve_closed"
    clients = 16

    async def traffic(self) -> Repeat:
        out = Repeat([], 0, 0.0)
        self.served = {}
        picks = iter(self.rng.choices(self.queries, k=self.size["requests"]))

        async def client() -> None:
            for query in picks:
                await self.request(query, time.perf_counter(), out)

        begin = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(self.clients)))
        out.wall_s = time.perf_counter() - begin
        out.queries = len(out.latencies_ms)
        return out


class ServeOpenZipf(Serving):
    """Poisson arrivals at a fixed rate whatever the replies do; Zipf
    popularity, every fourth arrival a paraphrase; cache on."""

    name = "serve_open_zipf"
    cache = True

    def repeat(self) -> Repeat:
        # Each repeat starts from a cache one (untimed) delta has just
        # invalidated, so the hit/near/miss mix is the same in every repeat.
        if self.serving is not None:
            self.delta()
            del self.samples["delta_ms"]
        return super().repeat()

    async def traffic(self) -> Repeat:
        n = self.size["requests"]
        picks = corpora.zipf_picks(self.rng, len(self.queries), n)
        texts = [
            corpora.paraphrase(self.queries[pick]) if i % 4 == 3 else self.queries[pick]
            for i, pick in enumerate(picks)
        ]
        self.served = {}
        return await open_loop(
            self.request, texts, corpora.poisson_due_times(self.rng, self.size["rate"], n)
        )

    def check(self) -> None:
        """Cached answers have no direct twin to compare with (a direct
        call would hit the same cache), so all go to the oracle: originals
        as exact answers, paraphrases for their overlap with the truth."""
        known = set(self.queries)
        served = list(self.served.values())
        self.verify([a for a in served if a.query in known], limit=8)
        overlaps = []
        for answer in [a for a in served if a.query not in known][:4]:
            truth = {rid for rid, _ in oracle.exs_top_k(self.engine.embeddings, answer.query, self.k)}
            overlaps.append(len(truth & set(answer.relation_ids())) / max(1, len(truth)))
        self.facts["near_overlap_at_10"] = sum(overlaps) / len(overlaps) if overlaps else 0.0


async def open_loop(send, items: list, due_s: list[float]) -> Repeat:
    """Send ``items[i]`` at ``due_s[i]`` seconds from now, never waiting
    for replies.  ``send(item, due, out)`` times from ``due`` (an absolute
    ``perf_counter`` reading), so a stall that delays later sends shows in
    their latency; how late the generator ran is ``sched_lag_ms``."""
    out = Repeat([], 0, 0.0, samples={"sched_lag_ms": []})
    tasks = []
    begin = time.perf_counter()
    for item, offset in zip(items, due_s):
        due = begin + offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        out.samples["sched_lag_ms"].append(_ms_since(due))
        tasks.append(asyncio.ensure_future(send(item, due, out)))
    await asyncio.gather(*tasks)
    out.wall_s = time.perf_counter() - begin
    out.queries = len(out.latencies_ms)
    return out


class LifecycleRW(Workload):
    """Snapshot and cold starts, then a write before every cached read."""

    name = "lifecycle_rw"
    cache = True

    def make_inputs(self) -> corpora.Inputs:
        return corpora.wikitables_inputs(self.seed, self.size["tables"], self.size["queries"])

    def repeat(self) -> Repeat:
        self.cold_start_cycle()
        latencies = []
        begin = time.perf_counter()
        for _ in range(self.size["pairs"]):
            self.delta()
            with self.call():
                start = time.perf_counter()
                self.last_answers = self.engine.search_batch(
                    self.first_queries, method="exs", k=self.k
                )
                latencies.append(_ms_since(start))
        wall = time.perf_counter() - begin
        self.samples.setdefault("post_delta_batch_ms", []).extend(latencies)
        return Repeat(latencies, len(self.first_queries) * len(latencies), wall)

    def warm_up(self) -> None:
        self.repeat()
        self.samples.clear()


WORKLOADS = {
    cls.name: cls
    for cls in (
        ExsManySmall,
        ExsFewLarge,
        ExsSharded10x,
        PaperMethods,
        ServeClosed,
        ServeOpenZipf,
        LifecycleRW,
    )
}
