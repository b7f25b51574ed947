"""Property suite: the query cache is invisible except for speed.

Two load-bearing invariants, each driven by Hypothesis over arbitrary
add/update/remove delta sequences, ``shards=`` values {1, 2, 5} and execution
backends (engine default — ``thread`` — plus explicit inline/thread):

1. **Transparency.**  At any fixed generation, a cached answer (exact
   hit) is bitwise-identical to the uncached answer the method computes
   at the same generation — same relation ids, same float scores.
2. **Freshness.**  After a delta, no lookup — exact *or* near-duplicate
   probe — ever serves a pre-delta ranking.  Every post-delta answer
   equals the post-delta uncached computation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation

TOPICS = [
    ["vaccine", "dose", "immunity", "booster", "trial"],
    ["league", "striker", "goal", "stadium", "referee"],
    ["gdp", "inflation", "export", "tariff", "budget"],
    ["galaxy", "nebula", "quasar", "orbit", "comet"],
    ["sonata", "violin", "tempo", "chord", "opera"],
    ["glacier", "monsoon", "drought", "humidity", "frost"],
    ["enzyme", "protein", "genome", "ribosome", "cell"],
    ["harbor", "cargo", "freight", "vessel", "anchor"],
]

QUERIES = ["vaccine booster trial", "league stadium", "gdp export", "quasar orbit"]

METHODS = ("exs", "anns")
K = 10


def make_relation(slot: int, version: int = 0) -> Relation:
    words = TOPICS[slot % len(TOPICS)]
    tag = f"v{version}"
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure", "Year"],
        [
            [f"{words[r % len(words)]} {tag}", str(100 * slot + r), str(2018 + version)]
            for r in range(3 + slot % 2)
        ],
        caption=f"{words[0]} {words[1]} table {tag}",
    )


def qualified(slot: int) -> str:
    return f"rel{slot}/rel{slot}"


def make_engine(shards: int, backend: str | None) -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48,
        shards=shards,
        executor=backend,
        method_params={
            # Exact index + exhaustive candidates: ANNS answers are a
            # pure function of the store state, so cached-vs-uncached
            # comparisons are meaningful bit for bit.
            "anns": {"index_kind": "exact", "n_candidates": 10_000},
        },
        query_cache=True,
    )


def near_variant(query: str) -> str:
    """Doubling the text keeps the mean-pooled embedding's direction —
    a guaranteed near-duplicate for the cosine probe."""
    return f"{query} {query}"


def apply_step(engine, current, versions, op, slot):
    """Normalize an arbitrary (op, slot) draw into a valid delta."""
    if op == "add" and slot in current:
        op = "update"
    elif op in ("update", "remove") and slot not in current:
        op = "add"
    if op == "remove" and len(current) == 1:
        op = "update"

    if op == "add":
        versions[slot] = versions.get(slot, -1) + 1
        current[slot] = make_relation(slot, versions[slot])
        engine.add_relations({qualified(slot): current[slot]})
    elif op == "update":
        versions[slot] += 1
        current[slot] = make_relation(slot, versions[slot])
        engine.update_relations({qualified(slot): current[slot]})
    else:
        del current[slot]
        engine.remove_relations([qualified(slot)])


def uncached_answer(engine, query, method):
    """The method's own answer, past the cache (no writer runs
    concurrently here, so no lock is needed)."""
    result = engine.method(method).search(query, k=K, h=-1.0)
    return [(m.relation_id, m.score) for m in result.matches]


def served_answer(engine, query, method):
    result = engine.search(query, method=method, k=K, h=-1.0)
    return [(m.relation_id, m.score) for m in result.matches]


op_steps = st.lists(
    st.tuples(st.sampled_from(["add", "update", "remove"]), st.integers(0, 7)),
    min_size=1,
    max_size=5,
)

backends = st.sampled_from([None, "inline", "thread"])


@settings(max_examples=10, deadline=None)
@given(steps=op_steps, shards=st.sampled_from([1, 2, 5]), backend=backends)
def test_cached_answers_are_bitwise_uncached(steps, shards, backend):
    """Exact hits replay the very objects the method computed: at every
    generation along a delta sequence, hit == uncached recompute, bit for
    bit, for every method and every shard layout."""
    current = {i: make_relation(i) for i in range(4)}
    versions = {i: 0 for i in range(4)}
    engine = make_engine(shards, backend)
    engine.index(Federation.from_relations([current[i] for i in sorted(current)]))
    for method in METHODS:
        engine.method(method)
    try:
        for step_no, (op, slot) in enumerate([(None, None), *steps]):
            if op is not None:
                apply_step(engine, current, versions, op, slot)
            for method in METHODS:
                for query in QUERIES:
                    first = served_answer(engine, query, method)  # warm (miss)
                    second = served_answer(engine, query, method)  # exact hit
                    want = uncached_answer(engine, query, method)
                    assert second == want, (
                        f"step {step_no}: cached {method} answer for {query!r} "
                        "diverged from the uncached recompute"
                    )
                    assert first == want
    finally:
        engine.close()


@settings(max_examples=10, deadline=None)
@given(steps=op_steps, shards=st.sampled_from([1, 2, 5]), backend=backends)
def test_post_delta_lookup_never_serves_pre_delta(steps, shards, backend):
    """After every delta, both the exact path and the near-duplicate
    probe answer from the NEW generation — a warm pre-delta cache is
    never allowed to leak a stale ranking through either door."""
    current = {i: make_relation(i) for i in range(4)}
    versions = {i: 0 for i in range(4)}
    engine = make_engine(shards, backend)
    engine.index(Federation.from_relations([current[i] for i in sorted(current)]))
    for method in METHODS:
        engine.method(method)
    try:
        for op, slot in steps:
            # Warm every exact query AND its near-duplicate variant, so
            # the store is full of tempting pre-delta entries.
            for method in METHODS:
                for query in QUERIES:
                    served_answer(engine, query, method)
                    served_answer(engine, near_variant(query), method)

            apply_step(engine, current, versions, op, slot)

            for method in METHODS:
                for query in QUERIES:
                    # Exact path: the warm entry is stale, must recompute.
                    assert served_answer(engine, query, method) == uncached_answer(
                        engine, query, method
                    )
                    # Near path: the probe sees only stale candidates and
                    # must fall through to a fresh computation too.
                    doubled = near_variant(query)
                    assert served_answer(engine, doubled, method) == uncached_answer(
                        engine, doubled, method
                    )
    finally:
        engine.close()


@settings(max_examples=6, deadline=None)
@given(shards=st.sampled_from([1, 2, 5]), backend=backends)
def test_near_probe_fires_at_stable_generation(shards, backend):
    """Sanity for the invariant above: when NO delta intervenes, the
    near-duplicate variant genuinely rides the probe (it serves the
    original's match objects and counts a near hit) — proving the
    freshness property exercises the probe, not a disabled path."""
    current = {i: make_relation(i) for i in range(4)}
    engine = make_engine(shards, backend)
    engine.index(Federation.from_relations([current[i] for i in sorted(current)]))
    engine.method("exs")
    try:
        want = served_answer(engine, QUERIES[0], "exs")
        near = served_answer(engine, near_variant(QUERIES[0]), "exs")
        assert [rid for rid, _ in near] == [rid for rid, _ in want]
        counters = engine.metrics.snapshot()["counters"]
        assert counters["cache.near_hits"] == 1
    finally:
        engine.close()
