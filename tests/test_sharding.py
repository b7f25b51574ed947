"""``DiscoveryEngine(shards=N)`` is accepted and changes nothing.

Every method answers from one index over the whole federation, so an
engine built with any ``shards`` ranks exactly what ``shards=1`` ranks
— same relation order, same score bits — for fresh indexes AND after
any sequence of add/update/remove deltas.  The helpers here are shared
by the other engine-equivalence suites.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation
from repro.errors import ConfigurationError

# Tolerance for comparisons between engines whose ANNS scans may run
# on differently shaped blocks: the exact rescore is one float32 GEMM
# per candidate set, and BLAS picks different kernels for different
# matrix shapes, so such scores drift by ~1e-9..1e-7.
SCORE_TOL = 2e-5

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


def make_engine(shards: int = 1) -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48,
        method_params={
            # Exact index + exhaustive budget: ANNS candidate sets are
            # then deterministic, so answers are comparable bit for bit.
            "anns": {"index_kind": "exact", "n_candidates": 10_000},
        },
        shards=shards,
    )


def federation(slots) -> Federation:
    return Federation.from_relations([make_relation(s) for s in slots])


def assert_same_rankings(a: DiscoveryEngine, b: DiscoveryEngine, method: str) -> None:
    for query in QUERIES:
        ra = a.search(query, method=method, k=100, h=-1.0)
        rb = b.search(query, method=method, k=100, h=-1.0)
        assert ra.relation_ids() == rb.relation_ids(), (
            f"{method} ranking diverged for {query!r}"
        )
        for ma, mb in zip(ra.matches, rb.matches):
            assert ma.score == pytest.approx(mb.score, abs=SCORE_TOL)


def assert_identical(a: DiscoveryEngine, b: DiscoveryEngine, method: str) -> None:
    """Same ``(relation_id, score)`` lists, bit for bit, per query and
    per batch."""
    for query in QUERIES:
        ra = a.search(query, method=method, k=100, h=-1.0)
        rb = b.search(query, method=method, k=100, h=-1.0)
        assert [(m.relation_id, m.score) for m in ra.matches] == [
            (m.relation_id, m.score) for m in rb.matches
        ], f"{method} answer diverged for {query!r}"
    batch_a = a.search_batch(QUERIES, method=method, k=100, h=-1.0)
    batch_b = b.search_batch(QUERIES, method=method, k=100, h=-1.0)
    for ra, rb in zip(batch_a, batch_b):
        assert [(m.relation_id, m.score) for m in ra.matches] == [
            (m.relation_id, m.score) for m in rb.matches
        ]


# -- engine-level equivalence ---------------------------------------------


class TestShardedEngineEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("method", ["exs", "anns", "cts"])
    def test_fresh_index_matches_unsharded(self, shards, method):
        """``shards=`` leaves the plan alone: bit-identical answers for
        ExS, exact-index ANNS and CTS (which once clustered per shard)."""
        fed = federation(range(8))
        base = make_engine().index(fed)
        sharded = make_engine(shards=shards).index(fed)
        assert_identical(base, sharded, method)

    @pytest.mark.parametrize("method", ["exs", "anns"])
    def test_batch_matches_unsharded_and_workers_agree(self, method):
        fed = federation(range(8))
        base = make_engine().index(fed)
        sharded = make_engine(shards=3).index(fed)
        want = base.search_batch(QUERIES, method=method, k=100, h=-1.0)
        got = sharded.search_batch(QUERIES, method=method, k=100, h=-1.0)
        for w, g in zip(want, got):
            assert w.relation_ids() == g.relation_ids()
            for mw, mg in zip(w.matches, g.matches):
                assert mg.score == pytest.approx(mw.score, abs=SCORE_TOL)

    def test_default_budget_truncation_matches(self):
        """With the auto budget (256 for small corpora) a ``shards=4``
        engine cuts the candidates exactly where ``shards=1`` does."""
        fed = federation(range(40))
        params = {"anns": {"index_kind": "exact"}}  # auto budget
        base = DiscoveryEngine(dim=48, method_params=params).index(fed)
        sharded = DiscoveryEngine(dim=48, method_params=params, shards=4).index(fed)
        for query in QUERIES:
            a = base.search(query, method="anns", k=100, h=-1.0)
            b = sharded.search(query, method="anns", k=100, h=-1.0)
            assert a.relation_ids() == b.relation_ids()
            for ma, mb in zip(a.matches, b.matches):
                assert ma.score == pytest.approx(mb.score, abs=SCORE_TOL)

    def test_cts_sharded_answers(self):
        sharded = DiscoveryEngine(
            dim=48,
            method_params={
                "cts": {"min_cluster_size": 4, "umap_neighbors": 5, "umap_epochs": 30}
            },
            shards=3,
        ).index(federation(range(8)))
        result = sharded.search("vaccine booster trial", method="cts", k=10, h=-1.0)
        assert result.relation_ids()
        assert qualified(0) in result.relation_ids()

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            DiscoveryEngine(dim=48, shards=0)


# -- hypothesis: delta sequences under shards=N == shards=1 ---------------


op_steps = st.lists(
    st.tuples(st.sampled_from(["add", "update", "remove"]), st.integers(0, 7)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=8, deadline=None)
@given(steps=op_steps, shards=st.sampled_from([2, 5]))
def test_sharded_delta_sequences_match_unsharded(steps, shards):
    current: dict[int, Relation] = {i: make_relation(i) for i in range(4)}
    versions: dict[int, int] = {i: 0 for i in range(4)}
    fed = Federation.from_relations([current[i] for i in sorted(current)])
    base = make_engine().index(fed)
    sharded = make_engine(shards=shards).index(fed)
    for engine in (base, sharded):
        engine.method("exs")
        engine.method("anns")

    for op, slot in steps:
        # Normalize invalid draws instead of discarding the example.
        if op == "add" and slot in current:
            op = "update"
        elif op in ("update", "remove") and slot not in current:
            op = "add"
        if op == "remove" and len(current) == 1:
            op = "update"

        if op == "add":
            versions[slot] = versions.get(slot, -1) + 1
            current[slot] = make_relation(slot, versions[slot])
            for engine in (base, sharded):
                engine.add_relations({qualified(slot): current[slot]})
        elif op == "update":
            versions[slot] += 1
            current[slot] = make_relation(slot, versions[slot])
            for engine in (base, sharded):
                engine.update_relations({qualified(slot): current[slot]})
        else:
            del current[slot]
            for engine in (base, sharded):
                engine.remove_relations([qualified(slot)])

    assert_identical(base, sharded, "exs")
    assert_identical(base, sharded, "anns")


# -- more shards than relations -------------------------------------------


class TestEmptyShards:
    def test_more_shards_than_relations(self):
        fed = federation(range(3))
        base = make_engine().index(fed)
        sharded = make_engine(shards=5).index(fed)
        assert_identical(base, sharded, "exs")
        assert_identical(base, sharded, "anns")

    def test_delta_drains_and_repopulates_a_shard(self):
        base = make_engine().index(federation(range(3)))
        sharded = make_engine(shards=5).index(federation(range(3)))
        for engine in (base, sharded):
            engine.method("exs")
            engine.method("anns")
        # Retire one relation, then bring in new ones.
        for engine in (base, sharded):
            engine.remove_relations([qualified(1)])
            engine.add_relations(
                {qualified(5): make_relation(5), qualified(6): make_relation(6)}
            )
        assert_identical(base, sharded, "exs")
        assert_identical(base, sharded, "anns")
