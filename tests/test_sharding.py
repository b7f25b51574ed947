"""Sharded store + scatter-gather execution (``DiscoveryEngine(shards=N)``).

The load-bearing invariant: for ExS and exact-index ANNS, a sharded
engine ranks exactly what the unsharded engine ranks — same relation
order, same scores to within float tolerance — for fresh indexes AND
after any sequence of add/update/remove deltas.  CTS makes no such
promise (it clusters per shard); its sharded path only has to answer
sensibly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine, ShardMap, ShardedStore
from repro.core.semimg import FederationEmbeddings, build_relation_embedding
from repro.core.sharding import ShardedANNSearch, make_sharded_method
from repro.datamodel.relation import Federation, Relation
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder
from repro.errors import ConfigurationError

# Engines here use the default float32 storage dtype: ExS scores stay
# bitwise identical across shard layouts (each is one centroid row's
# row-wise dot product with the query),
# but ANNS's exact rescore runs one float32 GEMM per candidate set and
# BLAS picks different kernels for different matrix shapes, so shard-
# local rescores drift from the unsharded ones by ~1e-9..1e-7.  At
# float64 (dtype=numpy.float64) the old 1e-9 bound holds — pinned by
# the fused-kernel property tests.
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
            # then deterministic, so sharded == unsharded is testable
            # bit-for-bit.  HNSW stays approximate per shard.
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


# -- ShardMap -------------------------------------------------------------


class TestShardMap:
    def test_deterministic_across_instances(self):
        ids = [f"ds{i}/rel{i}" for i in range(50)]
        a = ShardMap(4, seed=7)
        b = ShardMap(4, seed=7)
        assert [a.shard_of(r) for r in ids] == [b.shard_of(r) for r in ids]

    def test_seed_changes_placement(self):
        ids = [f"ds{i}/rel{i}" for i in range(200)]
        a = ShardMap(4, seed=0)
        b = ShardMap(4, seed=1)
        assert [a.shard_of(r) for r in ids] != [b.shard_of(r) for r in ids]

    def test_all_shards_in_range_and_used(self):
        shard_map = ShardMap(4)
        shards = {shard_map.shard_of(f"ds{i}/rel{i}") for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_rendezvous_stability_under_growth(self):
        """Adding a shard only moves relations ONTO the new shard."""
        ids = [f"ds{i}/rel{i}" for i in range(300)]
        before = ShardMap(4)
        after = ShardMap(5)
        moved = 0
        for relation_id in ids:
            old, new = before.shard_of(relation_id), after.shard_of(relation_id)
            if old != new:
                assert new == 4, f"{relation_id} moved between surviving shards"
                moved += 1
        assert 0 < moved < len(ids)

    def test_partition_groups_and_preserves_order(self):
        shard_map = ShardMap(3)
        ids = [f"ds{i}/rel{i}" for i in range(30)]
        parts = shard_map.partition(ids)
        assert sorted(x for part in parts for x in part) == sorted(ids)
        for shard, part in enumerate(parts):
            assert all(shard_map.shard_of(r) == shard for r in part)
            assert part == [r for r in ids if shard_map.shard_of(r) == shard]

    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(1)
        assert {shard_map.shard_of(f"r{i}") for i in range(20)} == {0}

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0)


# -- ShardedStore ---------------------------------------------------------


def build_store(slots) -> FederationEmbeddings:
    encoder = CachingEncoder(SemanticHashEncoder(dim=48))
    relations = [
        build_relation_embedding(qualified(s), make_relation(s), encoder)
        for s in slots
    ]
    return FederationEmbeddings(relations=relations, encoder=encoder)


class TestShardedStore:
    def test_partition_covers_store_without_copying(self):
        store = build_store(range(8))
        sharded = ShardedStore(store, ShardMap(3))
        assert sum(sharded.shard_sizes()) == store.n_relations
        by_id = {r.relation_id: r for r in store.relations}
        for shard in sharded.shards:
            for relation in shard.relations:
                # Shared objects, not re-embedded copies.
                assert relation is by_id[relation.relation_id]

    def test_route_touches_owning_shards_only(self):
        store = build_store(range(8))
        sharded = ShardedStore(store, ShardMap(4))
        embedding = build_relation_embedding(
            qualified(9), make_relation(9), store.encoder
        )
        routed = sharded.route([embedding], [], [qualified(3)])
        owner_new = sharded.shard_map.shard_of(qualified(9))
        owner_old = sharded.shard_map.shard_of(qualified(3))
        assert set(routed) == {owner_new, owner_old}
        assert routed[owner_new][0] == [embedding]
        assert routed[owner_old][2] == [qualified(3)]

    def test_apply_delta_mutates_owning_shard_stores(self):
        store = build_store(range(6))
        sharded = ShardedStore(store, ShardMap(3))
        embedding = build_relation_embedding(
            qualified(7), make_relation(7), store.encoder
        )
        sharded.apply_delta([embedding], [], [qualified(1)])
        owner = sharded.shard_map.shard_of(qualified(7))
        assert qualified(7) in sharded.shards[owner]
        gone = sharded.shard_map.shard_of(qualified(1))
        assert qualified(1) not in sharded.shards[gone]
        assert sum(sharded.shard_sizes()) == 6

    def test_shard_store_may_drain_empty(self):
        store = build_store(range(3))
        sharded = ShardedStore(store, ShardMap(5))
        # Some shard owns exactly one relation; removing it must not raise.
        sizes = sharded.shard_sizes()
        assert 0 in sizes  # 3 relations over 5 shards leaves empties
        for shard in sharded.shards:
            for relation in list(shard.relations):
                shard.remove_relation(relation.relation_id)
            assert shard.n_relations == 0


# -- engine-level equivalence ---------------------------------------------


class TestShardedEngineEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("method", ["exs", "anns"])
    def test_fresh_index_matches_unsharded(self, shards, method):
        fed = federation(range(8))
        base = make_engine().index(fed)
        sharded = make_engine(shards=shards).index(fed)
        assert_same_rankings(base, sharded, method)

    @pytest.mark.parametrize("method", ["exs", "anns"])
    def test_batch_matches_unsharded_and_workers_agree(self, method):
        fed = federation(range(8))
        base = make_engine().index(fed)
        sharded = make_engine(shards=3).index(fed)
        want = base.search_batch(QUERIES, method=method, k=100, h=-1.0)
        sequential = sharded.search_batch(QUERIES, method=method, k=100, h=-1.0)
        parallel = sharded.search_batch(
            QUERIES, method=method, k=100, h=-1.0, workers=4
        )
        for w, s, p in zip(want, sequential, parallel):
            assert w.relation_ids() == s.relation_ids() == p.relation_ids()
            for mw, ms, mp in zip(w.matches, s.matches, p.matches):
                assert ms.score == pytest.approx(mw.score, abs=SCORE_TOL)
                assert mp.score == pytest.approx(mw.score, abs=SCORE_TOL)

    def test_default_budget_truncation_matches(self):
        """With the auto budget (256 for small corpora) the distributed
        top-k re-cut across shards must still equal the unsharded cut."""
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

    def test_search_all_methods_on_sharded_engine(self):
        sharded = make_engine(shards=3).index(federation(range(8)))
        results = sharded.search_all_methods("vaccine booster trial", k=5, h=-1.0)
        assert set(results) == {"exs", "anns", "cts"}
        assert all(r.matches for r in results.values())

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            DiscoveryEngine(dim=48, shards=0)


# -- hypothesis: sharded delta sequences == unsharded ---------------------


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

    assert_same_rankings(base, sharded, "exs")
    assert_same_rankings(base, sharded, "anns")


# -- empty shards and shard lifecycle -------------------------------------


class TestEmptyShards:
    def test_more_shards_than_relations(self):
        fed = federation(range(3))
        base = make_engine().index(fed)
        sharded = make_engine(shards=5).index(fed)
        assert_same_rankings(base, sharded, "exs")
        assert_same_rankings(base, sharded, "anns")

    def test_delta_drains_and_repopulates_a_shard(self):
        base = make_engine().index(federation(range(3)))
        sharded = make_engine(shards=5).index(federation(range(3)))
        for engine in (base, sharded):
            engine.method("exs")
            engine.method("anns")
        # Retire one relation (its shard may drain), then bring in new
        # ones (some land on previously empty shards).
        for engine in (base, sharded):
            engine.remove_relations([qualified(1)])
            engine.add_relations(
                {qualified(5): make_relation(5), qualified(6): make_relation(6)}
            )
        assert_same_rankings(base, sharded, "exs")
        assert_same_rankings(base, sharded, "anns")

    def test_drained_shard_drops_its_method(self):
        sharded = make_engine(shards=5).index(federation(range(3)))
        method = sharded.method("exs")
        live_before = sum(m is not None for m in method.shard_methods)
        # Remove relations until one shard has nothing left.
        sharded.remove_relations([qualified(1), qualified(2)])
        live_after = sum(m is not None for m in method.shard_methods)
        assert live_after <= live_before
        assert sum(sharded._sharded.shard_sizes()) == 1


# -- observability --------------------------------------------------------


class TestShardObservability:
    def test_per_shard_stage_timers_and_merge(self):
        sharded = make_engine(shards=3).index(federation(range(8)))
        sharded.search("vaccine booster trial", method="exs", k=5, h=-1.0)
        snap = sharded.metrics.snapshot()
        shard_scans = [
            name
            for name in snap["stages"]
            if name.startswith("exs.shard") and name.endswith(".scan")
        ]
        assert shard_scans, f"no per-shard scan timers in {sorted(snap['stages'])}"
        assert "exs.merge" in snap["stages"]
        assert snap["stages"]["exs.merge"]["count"] >= 1

    def test_shard_size_gauges_track_deltas(self):
        sharded = make_engine(shards=3).index(federation(range(8)))
        snap = sharded.metrics.snapshot()
        sizes = {
            name: value
            for name, value in snap["gauges"].items()
            if name.startswith("engine.shard_sizes.")
        }
        assert len(sizes) == 3
        assert sum(sizes.values()) == 8
        sharded.method("exs")
        sharded.remove_relations([qualified(0)])
        snap = sharded.metrics.snapshot()
        sizes = {
            name: value
            for name, value in snap["gauges"].items()
            if name.startswith("engine.shard_sizes.")
        }
        assert sum(sizes.values()) == 7


# -- construction guards --------------------------------------------------


class TestShardedMethodConstruction:
    def test_factory_dispatch(self):
        store = build_store(range(6))
        sharded_store = ShardedStore(store, ShardMap(2))
        from repro.core.anns import ANNSearch
        from repro.core.exhaustive import ExhaustiveSearch

        anns = make_sharded_method(
            lambda: ANNSearch(index_kind="exact"), sharded_store
        )
        assert isinstance(anns, ShardedANNSearch)
        exs = make_sharded_method(ExhaustiveSearch, sharded_store)
        assert not isinstance(exs, ShardedANNSearch)
        assert exs.name == "exs"
        assert anns.name == "anns"

    def test_sharded_anns_requires_anns_factory(self):
        store = build_store(range(4))
        sharded_store = ShardedStore(store, ShardMap(2))
        from repro.core.exhaustive import ExhaustiveSearch

        with pytest.raises(ConfigurationError):
            ShardedANNSearch(ExhaustiveSearch, sharded_store)
