"""Property tests: where an engine runs is invisible in its answers.

ExS and exact-index ANNS rankings (and scores, to the float32 dtype
tolerance) must agree between the inline backend, the thread backend
and an engine built in another interpreter under another hash seed
(``"process"``), at any ``shards=`` value, for fresh indexes, mapped
loads and after arbitrary add/update/remove delta sequences.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation
from repro.storage import live_mapped_paths

from tests.crossprocess import run_elsewhere
from tests.test_sharding import QUERIES, SCORE_TOL, make_relation, qualified

#: Where the engine under test runs: on a backend in this process, or
#: (``"process"``) in a fresh interpreter.  The library itself starts no
#: worker processes; the last arm is how a multi-process deployment
#: would see it.
BACKENDS = ["inline", "thread", "process"]
SHARDS = [1, 2, 5]
METHODS = ["exs", "anns"]


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


def answers(engine: DiscoveryEngine, method: str) -> list:
    """Every query's ``(relation_id, score)`` list, each query alone and
    then as one batch."""
    results = [engine.search(query, method=method, k=100, h=-1.0) for query in QUERIES]
    results += engine.search_batch(QUERIES, method=method, k=100, h=-1.0)
    return [[(m.relation_id, m.score) for m in result.matches] for result in results]


def assert_same_answers(want: list, got: list) -> None:
    for w, g in zip(want, got, strict=True):
        assert [rid for rid, _ in w] == [rid for rid, _ in g]
        for (_, sw), (_, sg) in zip(w, g):
            assert sg == pytest.approx(sw, abs=SCORE_TOL)


def every_arm_answers() -> dict:
    """Each ``(load, shards, method)`` arm's answers from a thread-backend
    engine: freshly indexed, and loaded with ``mmap=True`` from a
    snapshot an inline engine saved."""
    fed = federation(range(6))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for shards in SHARDS:
            snapshot = Path(tmp) / f"snap{shards}"
            with make_engine("inline", shards=shards).index(fed) as saver:
                saver.save_index(snapshot)
            with make_engine("thread", shards=shards).index(fed) as engine:
                for method in METHODS:
                    out["fresh", shards, method] = answers(engine, method)
            with make_engine("thread", shards=shards).load_index(snapshot, mmap=True) as engine:
                for method in METHODS:
                    out["mapped", shards, method] = answers(engine, method)
    return out


@functools.cache
def answers_elsewhere() -> dict:
    """:func:`every_arm_answers`, computed once in another interpreter."""
    return run_elsewhere(every_arm_answers)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fresh_index_identical_across_backends(backend, shards, method):
    fed = federation(range(6))
    with make_engine("inline").index(fed) as baseline:
        want = answers(baseline, method)
    if backend == "process":
        got = answers_elsewhere()["fresh", shards, method]
    else:
        with make_engine(backend, shards=shards).index(fed) as engine:
            got = answers(engine, method)
    assert_same_answers(want, got)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_mapped_load_identical_across_backends(tmp_path, backend, shards, method):
    """A snapshot loaded with ``mmap=True`` ranks identically to the
    cold inline build wherever the engine runs, and ``close()`` unmaps
    it."""
    fed = federation(range(6))
    with make_engine("inline").index(fed) as baseline:
        want = answers(baseline, method)
    if backend == "process":
        got = answers_elsewhere()["mapped", shards, method]
    else:
        with make_engine("inline", shards=shards).index(fed) as saver:
            saver.save_index(tmp_path / "snap")
        with make_engine(backend, shards=shards).load_index(tmp_path / "snap", mmap=True) as engine:
            got = answers(engine, method)
            assert live_mapped_paths()
        assert not live_mapped_paths()
    assert_same_answers(want, got)


op_steps = st.lists(
    st.tuples(st.sampled_from(["add", "update", "remove"]), st.integers(0, 7)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=6, deadline=None)
@given(
    steps=op_steps,
    shards=st.sampled_from(SHARDS),
    backend=st.sampled_from(["inline", "thread"]),
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

        for method in METHODS:
            assert_same_answers(answers(baseline, method), answers(engine, method))
    finally:
        engine.close()
        baseline.close()
