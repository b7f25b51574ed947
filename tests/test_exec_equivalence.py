"""Property tests: every execution backend ranks identically.

The execution layer's contract is that *where* work runs is invisible
in the results: ExS and exact-index ANNS rankings (and scores, to the
float32 dtype tolerance) must agree across the inline, thread and
process backends, at any ``shards=`` value, for fresh indexes, mapped
loads and after arbitrary add/update/remove delta sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation
from repro.exec import ProcessBackend
from repro.linalg import live_segment_names, shared_memory_available
from repro.storage import live_mapped_paths

from tests.test_sharding import (
    QUERIES,
    SCORE_TOL,
    assert_same_rankings,
    make_relation,
    qualified,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)

BACKENDS = ["inline", "thread", "process"]


def make_engine(executor: str, shards: int = 1) -> DiscoveryEngine:
    return DiscoveryEngine(
        dim=48,
        method_params={
            # Exact index + exhaustive budget make ANNS deterministic,
            # so backend equivalence is testable to float tolerance.
            "anns": {"index_kind": "exact", "n_candidates": 10_000},
        },
        shards=shards,
        executor=executor,
    )


def federation(slots) -> Federation:
    return Federation.from_relations([make_relation(s) for s in slots])


def assert_same_batches(
    baseline: DiscoveryEngine, engine: DiscoveryEngine, method: str
) -> None:
    want = baseline.search_batch(QUERIES, method=method, k=100, h=-1.0, workers=4)
    got = engine.search_batch(QUERIES, method=method, k=100, h=-1.0, workers=4)
    for w, g in zip(want, got):
        assert [m.relation_id for m in w.matches] == [m.relation_id for m in g.matches]
        for mw, mg in zip(w.matches, g.matches):
            assert mg.score == pytest.approx(mw.score, abs=SCORE_TOL)


@pytest.mark.parametrize("method", ["exs", "anns"])
@pytest.mark.parametrize("shards", [1, 2, 5])
@pytest.mark.parametrize("backend", BACKENDS)
def test_fresh_index_identical_across_backends(backend, shards, method):
    fed = federation(range(6))
    with make_engine("inline").index(fed) as baseline:
        with make_engine(backend, shards=shards).index(fed) as engine:
            if backend == "process":
                assert isinstance(engine.executor, ProcessBackend)
            assert_same_rankings(baseline, engine, method)
            assert_same_batches(baseline, engine, method)


@pytest.mark.parametrize("method", ["exs", "anns"])
@pytest.mark.parametrize("shards", [1, 2, 5])
@pytest.mark.parametrize("backend", BACKENDS)
def test_mapped_load_identical_across_backends(tmp_path, backend, shards, method):
    """A snapshot loaded with ``mmap=True`` ranks identically to the
    cold inline build on every backend, allocates no shared memory
    for the ``mean`` centroid matrix, and ``close()`` unmaps it."""
    fed = federation(range(6))
    with make_engine("inline").index(fed) as baseline:
        with make_engine("inline", shards=shards).index(fed) as saver:
            saver.save_index(tmp_path / "snap")
        loaded = make_engine(backend, shards=shards).load_index(
            tmp_path / "snap", mmap=True
        )
        with loaded as engine:
            assert_same_rankings(baseline, engine, method)
            assert_same_batches(baseline, engine, method)
            assert not [n for n in live_segment_names()]
            assert live_mapped_paths()
    assert not live_mapped_paths()
    assert not [n for n in live_segment_names()]


op_steps = st.lists(
    st.tuples(st.sampled_from(["add", "update", "remove"]), st.integers(0, 7)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=6, deadline=None)
@given(
    steps=op_steps,
    shards=st.sampled_from([1, 2, 5]),
    backend=st.sampled_from(BACKENDS),
)
def test_delta_sequences_identical_across_backends(steps, shards, backend):
    """Deltas replayed through a live engine leave every backend
    ranking like inline."""
    current: dict[int, Relation] = {i: make_relation(i) for i in range(4)}
    versions: dict[int, int] = {i: 0 for i in range(4)}
    fed = Federation.from_relations([current[i] for i in sorted(current)])
    baseline = make_engine("inline").index(fed)
    engine = make_engine(backend, shards=shards).index(fed)
    try:
        for eng in (baseline, engine):
            eng.method("exs")
            eng.method("anns")

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
                for eng in (baseline, engine):
                    eng.add_relations({qualified(slot): current[slot]})
            elif op == "update":
                versions[slot] += 1
                current[slot] = make_relation(slot, versions[slot])
                for eng in (baseline, engine):
                    eng.update_relations({qualified(slot): current[slot]})
            else:
                del current[slot]
                for eng in (baseline, engine):
                    eng.remove_relations([qualified(slot)])

        assert_same_rankings(baseline, engine, "exs")
        assert_same_rankings(baseline, engine, "anns")
        assert_same_batches(baseline, engine, "exs")
        assert_same_batches(baseline, engine, "anns")
    finally:
        engine.close()
        baseline.close()
    # A process engine's shared scan buffers must not outlive close().
    assert not [n for n in live_segment_names()]
