"""A small topical federation and the engine-equivalence checks the
engine suites share.

Eight topics of five words each; relation ``slot`` draws its rows from
topic ``slot % 8``, and ``version`` rewrites its cells, so deltas can
revise a relation without changing its id.  :func:`assert_identical`
compares two engines bit for bit, :func:`assert_same_rankings` within
:data:`SCORE_TOL`.
"""

from __future__ import annotations

import pytest

from repro.core import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation

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
