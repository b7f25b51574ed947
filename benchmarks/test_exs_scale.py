"""ExS at the paper's second scale: 60 000 relations, one 16-query batch.

The paper's EDP corpus holds ~60 000 datasets.  This measures ExS's
scan at that size two ways, from the same encoded query block:

* **full** — :func:`repro.linalg.rowwise_scores` over every centroid,
  :func:`repro.linalg.top_k_mask` over the whole ``(Q, R)`` matrix, then
  each query's candidates sorted by ``(-score, relation_id)``;
* **filtered** — what ExS serves: one GEMM bounds every score, the
  row-wise kernel re-scores only the candidates within the proven
  margin of each query's k-th best, and only those are ranked.

Both must give the same ``(relation_id, score)`` lists bit for bit.
Both times are printed (run with ``-s``); nothing guards their ratio.
The federation is synthetic: each relation holds two encoded values,
so its centroid is a real encoder output rather than a random vector.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core import ExhaustiveSearch
from repro.core.semimg import FederationEmbeddings, RelationEmbedding
from repro.embedding import SemanticHashEncoder
from repro.linalg import rowwise_scores, top_k_mask

N_RELATIONS = 60_000
DIM = 64
N_QUERIES = 16
K = 20
REPEATS = 5

WORDS = [
    "vaccine", "dose", "immunity", "booster", "trial", "league", "striker", "goal",
    "stadium", "referee", "gdp", "inflation", "export", "tariff", "budget", "galaxy",
    "nebula", "quasar", "orbit", "comet", "glacier", "monsoon", "drought", "frost",
]


@pytest.fixture(scope="module")
def scale_exs():
    rng = random.Random(0)
    encoder = SemanticHashEncoder(dim=DIM)
    values = [
        (f"{rng.choice(WORDS)} {slot}", f"{rng.choice(WORDS)} {rng.choice(WORDS)}")
        for slot in range(N_RELATIONS)
    ]
    vectors = encoder.encode([text for pair in values for text in pair]).astype(np.float32)
    relations = [
        RelationEmbedding(
            relation_id=f"edp/rel{slot}",
            values=pair,
            attr_names=("Topic", "Tags"),
            vectors=vectors[2 * slot : 2 * slot + 2],
            counts=np.array([1 + slot % 3, 1]),
        )
        for slot, pair in enumerate(values)
    ]
    exs = ExhaustiveSearch().index(FederationEmbeddings(relations=relations, encoder=encoder))
    queries = [f"{rng.choice(WORDS)} {rng.choice(WORDS)}" for _ in range(N_QUERIES)]
    return exs, exs._encode_block(queries)


def full_scan(exs, block):
    """The whole ``(R, Q)`` matrix, a full-matrix tie-inclusive cut, and
    each query's candidates sorted by ``(-score, relation_id)``."""
    by_query = rowwise_scores(exs._matrix, block).T
    keep = top_k_mask(by_query, K) & (by_query >= 0.0)
    ids = exs._block_ids
    answers = []
    for column, mask in zip(by_query, keep):
        rows = np.flatnonzero(mask).tolist()
        ranked = sorted(((ids[r], float(column[r])) for r in rows), key=lambda p: (-p[1], p[0]))
        answers.append(ranked[:K])
    return answers


def filtered_scan(exs, block):
    ranked = exs.rank_survivors(*exs._scan(block, K, 0.0), len(block), K, 0.0)
    return [[(m.relation_id, m.score) for m in answer] for answer in ranked]


def best_ms(run, *args):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run(*args)
        times.append((time.perf_counter() - start) * 1000.0)
    return min(times), result


def test_filtered_scan_matches_full_scan(scale_exs):
    exs, block = scale_exs
    full_ms, full = best_ms(full_scan, exs, block)
    filtered_ms, filtered = best_ms(filtered_scan, exs, block)
    assert filtered == full
    assert [len(answer) for answer in filtered] == [K] * N_QUERIES
    print(
        f"\nExS scan, {N_RELATIONS} relations x {N_QUERIES} queries, d={DIM}, k={K} "
        f"(best of {REPEATS}): full row-wise + top_k_mask {full_ms:.1f} ms, "
        f"GEMM bound + verify {filtered_ms:.1f} ms ({full_ms / filtered_ms:.1f}x)"
    )
