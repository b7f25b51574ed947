"""Serving under concurrency: rank identity, writer deltas, drain races.

The functional suite (``test_serving.py``) drives the front end on a
quiet engine.  This one races it against the things production traffic
actually races against — windows dispatched on several threads, a
writer applying federation deltas mid-flight, and a drain overlapping
both — and holds
the serving layer to the engine's own consistency contract: every
answer equals what a direct ``engine.search`` would return against
*some* complete federation generation, never a torn mix.

Runs in the CI concurrency-stress shard under ``REPRO_SANITIZE=1``,
where the instrumented RWLock raises on misuse instead of deadlocking.
"""

from __future__ import annotations

import asyncio
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation

#: Topic pools give each slot distinct content, so rankings move when a
#: delta rewrites a slot's topic.
TOPICS = [
    ["vaccine", "dose", "immunity", "booster", "trial"],
    ["league", "striker", "goal", "stadium", "referee"],
    ["gdp", "inflation", "export", "tariff", "budget"],
    ["galaxy", "nebula", "quasar", "orbit", "comet"],
    ["sonata", "violin", "tempo", "chord", "opera"],
    ["glacier", "monsoon", "drought", "humidity", "frost"],
]

QUERIES = [
    "vaccine booster trial",
    "league stadium referee",
    "gdp export budget",
    "quasar orbit comet",
    "violin tempo opera",
    "monsoon drought frost",
]

N_SLOTS = 6
K = 4


def make_relation(slot: int, topic: int | None = None) -> Relation:
    words = TOPICS[(topic if topic is not None else slot) % len(TOPICS)]
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure"],
        [[f"{words[r % len(words)]} {slot}", str(100 * slot + r)] for r in range(4)],
        caption=f"{words[0]} {words[1]} table {slot}",
    )


def qualified(slot: int) -> str:
    return f"rel{slot}/rel{slot}"


def make_engine(relations: "list[Relation]") -> DiscoveryEngine:
    engine = DiscoveryEngine(dim=48)
    engine.index(Federation.from_relations(relations))
    engine.method("exs")
    return engine


def direct_ids(engine: DiscoveryEngine, query: str) -> "list[str]":
    return engine.search(query, method="exs", k=K).relation_ids()


# -- property: batched serving == direct search, any traffic shape -----------

traffic = st.lists(
    st.tuples(st.integers(0, len(QUERIES) - 1), st.sampled_from([2, K])),
    min_size=1,
    max_size=24,
)


@settings(max_examples=10, deadline=None)
@given(plan=traffic)
def test_serving_matches_direct_search_property(plan):
    """Any mix of concurrent (query, k) requests — coalesced across
    several keys and dispatched on two threads — is element-wise
    rank-identical to direct single-query search."""
    engine = make_engine([make_relation(s) for s in range(N_SLOTS)])

    async def serve():
        async with engine.serving(window_ms=2.0, max_batch=4, dispatch_workers=2) as serving:
            return await asyncio.gather(
                *(serving.submit(QUERIES[qi], method="exs", k=k) for qi, k in plan)
            )

    served = asyncio.run(serve())
    for (qi, k), result in zip(plan, served):
        direct = engine.search(QUERIES[qi], method="exs", k=k)
        assert result.relation_ids() == direct.relation_ids(), (
            f"serving diverged from direct search for {QUERIES[qi]!r} (k={k})"
        )


# -- writer deltas racing served reads ---------------------------------------


def test_results_atomic_across_concurrent_delta():
    """A delta landing mid-traffic: every in-flight answer matches the
    pre-delta or the post-delta federation exactly — never a torn mix —
    and post-drain traffic sees only the post-delta state."""
    initial = [make_relation(s) for s in range(N_SLOTS)]
    engine = make_engine(initial)

    # The delta rewrites slot 0 from vaccines to astronomy: reference
    # rankings for both generations, built on throwaway cold engines.
    moved = make_relation(0, topic=3)
    pre = {q: direct_ids(make_engine(initial), q) for q in QUERIES}
    post_relations = [moved] + initial[1:]
    post = {q: direct_ids(make_engine(post_relations), q) for q in QUERIES}
    assert pre[QUERIES[0]] != post[QUERIES[0]], "delta must move a ranking"

    async def serve():
        async with engine.serving(
            window_ms=1.0, max_batch=4, dispatch_workers=2
        ) as serving:
            async def client(wave: int):
                return await asyncio.gather(
                    *(serving.submit(q, method="exs", k=K) for q in QUERIES)
                )

            first = asyncio.ensure_future(client(0))
            loop = asyncio.get_running_loop()
            writer = loop.run_in_executor(
                None, lambda: engine.update_relations({qualified(0): moved})
            )
            waves = [asyncio.ensure_future(client(w)) for w in range(1, 5)]
            results = [await first, *(await asyncio.gather(*waves))]
            await writer
            # Traffic after the delta is definitely post-generation.
            settled = await client(99)
            return results, settled

    results, settled = asyncio.run(serve())
    for wave in results:
        for query, result in zip(QUERIES, wave):
            ids = result.relation_ids()
            assert ids in (pre[query], post[query]), (
                f"torn result for {query!r}: {ids}"
            )
    for query, result in zip(QUERIES, settled):
        assert result.relation_ids() == post[query]


def test_drain_interleaves_with_writer_delta():
    """drain() while a writer wants the write lock: parked windows are
    flushed, every future resolves, the delta applies — no deadlock and
    no dropped request.  Bounded by a hard timeout so a regression
    fails fast instead of hanging the suite."""
    engine = make_engine([make_relation(s) for s in range(N_SLOTS)])
    moved = make_relation(1, topic=4)
    delta_applied = threading.Event()

    async def serve():
        serving = engine.serving(window_ms=60_000.0, max_batch=8, dispatch_workers=2)
        async with serving:
            parked = [
                asyncio.ensure_future(serving.submit(q, method="exs", k=K))
                for q in QUERIES
            ]
            await asyncio.sleep(0)
            assert serving.outstanding == len(QUERIES)

            def write():
                engine.update_relations({qualified(1): moved})
                delta_applied.set()

            writer = threading.Thread(target=write)
            writer.start()
            try:
                await serving.drain()
                results = await asyncio.gather(*parked)
            finally:
                writer.join(timeout=30.0)
            assert not writer.is_alive()
            return results

    results = asyncio.run(asyncio.wait_for(serve(), timeout=60.0))
    assert delta_applied.is_set()
    assert len(results) == len(QUERIES)
    for result in results:
        assert result.relation_ids()
    # The drained engine is coherent: direct search agrees with a cold
    # rebuild of the post-delta federation.
    post = make_engine(
        [make_relation(0), moved] + [make_relation(s) for s in range(2, N_SLOTS)]
    )
    for query in QUERIES:
        assert direct_ids(engine, query) == direct_ids(post, query)


def test_two_serving_engines_share_one_discovery_engine():
    """Sequential serving sessions over one engine: counters accumulate
    in the shared registry and the second session is unaffected by the
    first being closed."""
    engine = make_engine([make_relation(s) for s in range(N_SLOTS)])

    async def session():
        async with engine.serving(window_ms=1.0) as serving:
            await asyncio.gather(
                *(serving.submit(q, method="exs", k=K) for q in QUERIES)
            )

    asyncio.run(session())
    asyncio.run(session())
    counters = engine.metrics.snapshot()["counters"]
    assert counters["serving.completed"] == 2 * len(QUERIES)


# -- the semantic cache under racing writers ---------------------------------


def make_cached_engine(relations: "list[Relation]") -> DiscoveryEngine:
    engine = DiscoveryEngine(dim=48, query_cache=True)
    engine.index(Federation.from_relations(relations))
    engine.method("exs")
    return engine


def test_results_atomic_across_concurrent_delta_with_cache():
    """The cached variant of the atomicity property: with a warm
    semantic cache in front of the methods, a mid-traffic delta still
    yields only pre- or post-delta answers — a cache hit from a
    generation other than one the federation actually held would be a
    torn read — and settled traffic sees only the post-delta state."""
    initial = [make_relation(s) for s in range(N_SLOTS)]
    engine = make_cached_engine(initial)
    moved = make_relation(0, topic=3)
    pre = {q: direct_ids(make_engine(initial), q) for q in QUERIES}
    post = {q: direct_ids(make_engine([moved] + initial[1:]), q) for q in QUERIES}
    assert pre[QUERIES[0]] != post[QUERIES[0]], "delta must move a ranking"

    for query in QUERIES:  # warm the cache at the pre-delta generation
        engine.search(query, method="exs", k=K)

    async def serve():
        async with engine.serving(
            window_ms=1.0, max_batch=4, dispatch_workers=2
        ) as serving:

            async def client(wave: int):
                return await asyncio.gather(
                    *(serving.submit(q, method="exs", k=K) for q in QUERIES)
                )

            first = asyncio.ensure_future(client(0))
            loop = asyncio.get_running_loop()
            writer = loop.run_in_executor(
                None, lambda: engine.update_relations({qualified(0): moved})
            )
            waves = [asyncio.ensure_future(client(w)) for w in range(1, 5)]
            results = [await first, *(await asyncio.gather(*waves))]
            await writer
            settled = await client(99)  # recomputes + re-warms post-delta
            second = await client(100)  # guaranteed cache hits, must stay post
            return results, settled, second

    results, settled, second = asyncio.run(serve())
    for wave in results:
        for query, result in zip(QUERIES, wave):
            ids = result.relation_ids()
            assert ids in (pre[query], post[query]), f"torn result for {query!r}: {ids}"
    for query, result in zip(QUERIES, settled):
        assert result.relation_ids() == post[query]
    for query, result in zip(QUERIES, second):
        assert result.relation_ids() == post[query]
    # The settled wave re-warmed every query, so the follow-up wave rode
    # the cache: the hit path was genuinely exercised post-delta.
    counters = engine.metrics.snapshot()["counters"]
    assert counters.get("serving.cache_hits", 0) >= len(QUERIES)


def test_drain_with_cache_never_leaks_a_stale_generation():
    """drain() racing a writer on a cached engine: the parked windows
    may answer from either side of the delta, but once the writer has
    published, no signature — neither the pre-warmed one nor the one
    the draining windows computed and tried to backfill — serves
    anything but the post-delta ranking."""
    initial = [make_relation(s) for s in range(N_SLOTS)]
    engine = make_cached_engine(initial)
    moved = make_relation(1, topic=4)
    delta_applied = threading.Event()

    for query in QUERIES:  # warm signature (method, k=K) pre-delta
        engine.search(query, method="exs", k=K)

    async def serve():
        serving = engine.serving(window_ms=60_000.0, max_batch=8, dispatch_workers=2)
        async with serving:
            # k=2 is a different cache signature: these MISS the warm
            # cache and genuinely park in the 60s window.
            parked = [
                asyncio.ensure_future(serving.submit(q, method="exs", k=2))
                for q in QUERIES
            ]
            await asyncio.sleep(0)
            assert serving.outstanding == len(QUERIES)

            def write():
                engine.update_relations({qualified(1): moved})
                delta_applied.set()

            writer = threading.Thread(target=write)
            writer.start()
            try:
                await serving.drain()
                results = await asyncio.gather(*parked)
            finally:
                writer.join(timeout=30.0)
            assert not writer.is_alive()
            return results

    results = asyncio.run(asyncio.wait_for(serve(), timeout=60.0))
    assert delta_applied.is_set()
    assert len(results) == len(QUERIES)
    for result in results:
        assert result.relation_ids()

    post = make_engine(
        [make_relation(0), moved] + [make_relation(s) for s in range(2, N_SLOTS)]
    )
    for query in QUERIES:
        # The pre-delta warm entries (k=K) are dead: generation moved.
        assert direct_ids(engine, query) == direct_ids(post, query)
        # And whatever the drained windows inserted at k=2 — possibly a
        # pre-delta computation — was dropped or superseded: the served
        # answer equals the post-delta computation.
        got = engine.search(query, method="exs", k=2).relation_ids()
        assert got == post.search(query, method="exs", k=2).relation_ids()
