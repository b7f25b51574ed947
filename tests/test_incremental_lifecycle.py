"""Incremental federation lifecycle: deltas through store, methods, engine.

The load-bearing invariant: after ANY sequence of add/update/remove
deltas, ExS and ANNS (exact index) rank exactly what a from-scratch
``index()`` of the final federation state ranks — and CTS does too
whenever its drift policy triggered a rebuild.  The cold-rebuild
comparison federation is built in the *store's* final relation order
(updates keep their position, adds append, removes compact), which is
the order the incremental store actually holds.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine, FederationDelta
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.semimg import build_relation_embedding
from repro.datamodel.relation import Federation, Relation
from repro.embedding.semantic import SemanticHashEncoder
from repro.errors import ConfigurationError, NotFittedError

SCORE_TOL = 1e-9

#: Topic word pools used to give every relation distinct content.
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
    """A deterministic relation whose content depends on (slot, version)."""
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


def make_engine() -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48,
        method_params={
            # Exact index + an exhaustive candidate budget make ANNS
            # deterministic regardless of point-insertion order; HNSW
            # graphs depend on that order, so they cannot promise
            # incremental == cold equality.
            "anns": {"index_kind": "exact", "n_candidates": 10_000},
        },
    )


def rankings(engine: DiscoveryEngine, method: str) -> dict[str, list]:
    out = {}
    for query in QUERIES:
        result = engine.search(query, method=method, k=100, h=-1.0)
        out[query] = [(m.relation_id, m.score) for m in result.matches]
    return out


def assert_same_rankings(incremental: DiscoveryEngine, cold: DiscoveryEngine, method: str):
    got, want = rankings(incremental, method), rankings(cold, method)
    for query in QUERIES:
        assert [rid for rid, _ in got[query]] == [rid for rid, _ in want[query]], (
            f"{method} ranking diverged for {query!r}"
        )
        for (_, g), (_, w) in zip(got[query], want[query]):
            assert g == pytest.approx(w, abs=SCORE_TOL)


# -- hypothesis property: delta sequences == cold rebuild -----------------

op_steps = st.lists(
    st.tuples(st.sampled_from(["add", "update", "remove"]), st.integers(0, 7)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=12, deadline=None)
@given(steps=op_steps)
def test_delta_sequences_match_cold_rebuild(steps):
    current: dict[int, Relation] = {i: make_relation(i) for i in range(4)}
    versions: dict[int, int] = {i: 0 for i in range(4)}
    engine = make_engine().index(
        Federation.from_relations([current[i] for i in sorted(current)])
    )
    # Build before mutating: apply_delta only reaches *built* indexes.
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
            engine.add_relations({qualified(slot): current[slot]})
        elif op == "update":
            versions[slot] += 1
            current[slot] = make_relation(slot, versions[slot])
            engine.update_relations({qualified(slot): current[slot]})
        else:
            del current[slot]
            engine.remove_relations([qualified(slot)])

    # Cold rebuild in the store's final relation order.
    order = [int(rid.partition("/")[0][3:]) for rid in engine.embeddings.relation_ids()]
    assert sorted(order) == sorted(current)
    cold = make_engine().index(Federation.from_relations([current[i] for i in order]))

    assert engine.embeddings.generation == len(steps)
    assert_same_rankings(engine, cold, "exs")
    assert_same_rankings(engine, cold, "anns")


# -- CTS drift policy -----------------------------------------------------


CTS_PARAMS = {"min_cluster_size": 4, "umap_neighbors": 5, "umap_epochs": 30}


def cts_engine(drift_threshold: float) -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48, method_params={"cts": dict(CTS_PARAMS, drift_threshold=drift_threshold)}
    )


class TestCTSLifecycle:
    def test_rebuild_matches_cold_index(self):
        current = {i: make_relation(i) for i in range(6)}
        engine = cts_engine(drift_threshold=1e-9)
        engine.index(Federation.from_relations([current[i] for i in sorted(current)]))
        engine.method("cts")

        current[6] = make_relation(6)
        engine.add_relations({qualified(6): current[6]})
        del current[1]
        engine.remove_relations([qualified(1)])

        # A vanishing threshold forces the re-cluster on every delta.
        assert engine.metrics.counter("cts.rebuilds").value >= 1
        order = [
            int(rid.partition("/")[0][3:]) for rid in engine.embeddings.relation_ids()
        ]
        cold = cts_engine(drift_threshold=1e-9)
        cold.index(Federation.from_relations([current[i] for i in order]))
        assert_same_rankings(engine, cold, "cts")

    def test_incremental_path_tracks_drift_without_rebuild(self):
        current = {i: make_relation(i) for i in range(6)}
        engine = cts_engine(drift_threshold=100.0)  # never rebuild
        engine.index(Federation.from_relations([current[i] for i in sorted(current)]))
        engine.method("cts")

        engine.add_relations({qualified(7): make_relation(7)})
        assert engine.metrics.counter("cts.rebuilds").value == 0
        drift = engine.metrics.gauge("cts.drift").value
        assert drift > 0.0  # fresh values were assigned to medoids post hoc

        # The patched index still answers; the new relation is rankable.
        result = engine.search("harbor cargo vessel", method="cts", k=10, h=-1.0)
        assert qualified(7) in result.relation_ids()


# -- engine lifecycle plumbing --------------------------------------------


@pytest.fixture()
def live_engine():
    current = {i: make_relation(i) for i in range(4)}
    engine = make_engine().index(
        Federation.from_relations([current[i] for i in sorted(current)])
    )
    engine.method("exs")
    engine.method("anns")
    return engine, current


class TestEngineLifecycle:
    def test_delta_records_metrics_and_generation(self, live_engine):
        engine, _ = live_engine
        assert engine.metrics.gauge("engine.generation").value == 0
        delta = engine.add_relations({qualified(5): make_relation(5)})
        assert isinstance(delta, FederationDelta)
        assert delta.generation == 1
        assert delta.n_changes == 1
        engine.update_relations({qualified(5): make_relation(5, version=1)})
        engine.remove_relations([qualified(5)])
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["engine.deltas"] == 3
        assert snapshot["counters"]["engine.relations_added"] == 1
        assert snapshot["counters"]["engine.relations_updated"] == 1
        assert snapshot["counters"]["engine.relations_removed"] == 1
        assert snapshot["gauges"]["engine.generation"] == 3
        assert snapshot["gauges"]["exs.generation"] == 3
        assert snapshot["counters"]["exs.deltas"] == 3
        assert "engine.generation" in engine.metrics.format_table()

    def test_add_existing_rejected_atomically(self, live_engine):
        engine, _ = live_engine
        before = engine.embeddings.generation
        with pytest.raises(ConfigurationError):
            engine.add_relations(
                {qualified(6): make_relation(6), qualified(0): make_relation(0)}
            )
        assert engine.embeddings.generation == before
        assert qualified(6) not in engine.embeddings

    def test_update_missing_rejected_atomically(self, live_engine):
        engine, _ = live_engine
        before = engine.embeddings.relation_ids()
        with pytest.raises(ConfigurationError):
            engine.update_relations(
                {qualified(0): make_relation(0, 1), qualified(9): make_relation(9)}
            )
        assert engine.embeddings.relation_ids() == before

    def test_remove_missing_and_duplicate_rejected(self, live_engine):
        engine, _ = live_engine
        with pytest.raises(ConfigurationError):
            engine.remove_relations([qualified(9)])
        with pytest.raises(ConfigurationError):
            engine.remove_relations([qualified(0), qualified(0)])

    def test_delta_may_not_empty_the_federation(self, live_engine):
        engine, current = live_engine
        with pytest.raises(ConfigurationError):
            engine.remove_relations([qualified(i) for i in sorted(current)])
        assert engine.embeddings.n_relations == len(current)

    def test_update_changes_scores(self, live_engine):
        engine, _ = live_engine
        query = "league stadium goal"

        def score_of(rid):
            result = engine.search(query, method="exs", k=100, h=-1.0)
            return dict((m.relation_id, m.score) for m in result.matches)[rid]

        before = score_of(qualified(1))
        engine.update_relations({qualified(1): make_relation(1, version=5)})
        assert score_of(qualified(1)) != pytest.approx(before, abs=SCORE_TOL)

    def test_lazy_method_built_after_delta_sees_current_state(self):
        current = {i: make_relation(i) for i in range(4)}
        engine = make_engine().index(
            Federation.from_relations([current[i] for i in sorted(current)])
        )
        engine.method("exs")  # anns deliberately NOT built yet
        engine.add_relations({qualified(7): make_relation(7)})
        # First ANNS use builds from the post-delta store.
        result = engine.search("harbor cargo vessel", method="anns", k=10, h=-1.0)
        assert qualified(7) in result.relation_ids()

    def test_concurrent_searches_never_torn(self, live_engine):
        engine, _ = live_engine
        errors: list[BaseException] = []
        stop = threading.Event()
        committed = [
            {qualified(slot) for slot in slots}
            for slots in ((0, 1, 2, 3), (0, 1, 2, 3, 5), (1, 2, 3, 5))
        ]

        def reader():
            while not stop.is_set():
                try:
                    batch = engine.search_batch(QUERIES, method="exs", k=100, h=-1.0)
                    for result in batch:
                        # Every answer reflects one complete generation.
                        # Each delta below is atomic but the four are not,
                        # so a reader may land between any two of them.
                        assert set(result.relation_ids()) in committed
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(10):
                engine.add_relations({qualified(5): make_relation(5)})
                engine.remove_relations([qualified(0)])
                engine.add_relations({qualified(0): make_relation(0)})
                engine.remove_relations([qualified(5)])
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors


# -- store-level lifecycle -------------------------------------------------


class TestStoreLifecycle:
    @pytest.fixture()
    def store(self):
        federation = Federation.from_relations([make_relation(i) for i in range(3)])
        return DiscoveryEngine(dim=48).index(federation).embeddings

    def test_generation_monotonic(self, store):
        assert store.generation == 0
        store.add_relation(qualified(4), make_relation(4))
        assert store.generation == 1
        store.update_relation(qualified(4), make_relation(4, 1))
        assert store.generation == 2
        store.remove_relation(qualified(4))
        assert store.generation == 3

    def test_update_keeps_position_add_appends(self, store):
        store.update_relation(qualified(1), make_relation(1, 1))
        assert store.relation_ids()[1] == qualified(1)
        store.add_relation(qualified(4), make_relation(4))
        assert store.relation_ids()[-1] == qualified(4)

    def test_remove_last_relation_refused(self, store):
        store.remove_relation(qualified(0))
        store.remove_relation(qualified(1))
        with pytest.raises(ConfigurationError):
            store.remove_relation(qualified(2))

    def test_embedding_id_mismatch_rejected(self, store):
        embedding = build_relation_embedding(
            qualified(4), make_relation(4), store.encoder
        )
        with pytest.raises(ConfigurationError):
            store.add_relation(qualified(5), embedding)

    def test_dim_mismatch_rejected(self, store):
        other = SemanticHashEncoder(dim=32)
        embedding = build_relation_embedding(qualified(4), make_relation(4), other)
        with pytest.raises(ConfigurationError):
            store.add_relation(qualified(4), embedding)

    def test_apply_delta_requires_index(self):
        with pytest.raises(NotFittedError):
            ExhaustiveSearch().apply_delta([], [], ["x"])

    def test_generation_persists_across_save_load(self, store, tmp_path):
        from repro.core import load_federation_embeddings, save_federation_embeddings

        store.add_relation(qualified(4), make_relation(4))
        store.remove_relation(qualified(0))
        path = tmp_path / "live.npz"
        save_federation_embeddings(store, path)
        loaded = load_federation_embeddings(path, store.encoder)
        assert loaded.generation == store.generation == 2
        assert loaded.relation_ids() == store.relation_ids()
