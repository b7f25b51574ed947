"""The ledger's own answer key: Algorithm 1 as plain loops.

Exhaustive Search scores a relation by the mean cosine between the
query and every attribute occurrence (so a value appearing ``count``
times weighs ``count`` times), keeps scores ``>= h``, orders by
``(-score, relation_id)`` and cuts at ``k``.  Nothing here is shared
with the engine's kernels, so a kernel, shard, cache or snapshot bug
cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np

#: Score tolerance: the engine scans in float32, the oracle in float64.
TOLERANCE = 1e-5


def exs_scores(embeddings, query: str) -> dict[str, float]:
    """Every relation's Algorithm-1 score for ``query``."""
    qvec = np.asarray(embeddings.encode_query(query), dtype=np.float64)
    scores: dict[str, float] = {}
    for relation in embeddings.relations:
        vectors = np.asarray(relation.vectors, dtype=np.float64)
        total, cells = 0.0, 0
        for row in range(relation.n_unique):
            count = int(relation.counts[row])
            total += count * float(np.dot(vectors[row], qvec))
            cells += count
        scores[relation.relation_id] = total / cells
    return scores


def exs_top_k(embeddings, query: str, k: int, h: float = 0.0) -> list[tuple[str, float]]:
    kept = [(rid, s) for rid, s in exs_scores(embeddings, query).items() if s >= h]
    kept.sort(key=lambda pair: (-pair[1], pair[0]))
    return kept[:k]


def agrees(answer, scores: dict[str, float], k: int, h: float = 0.0) -> bool:
    """Whether ``answer`` (a SearchResult) is a correct top-``k``.

    Position ``i`` must hold a relation whose oracle score equals both
    the score the engine reported and the oracle's ``i``-th best score,
    each within ``TOLERANCE`` — so relations tied within float32
    round-off may swap places, and nothing else may.
    """
    expected = sorted((s for s in scores.values() if s >= h - TOLERANCE), reverse=True)[:k]
    matches = list(answer)
    n_sure = sum(1 for s in scores.values() if s >= h + TOLERANCE)
    if not min(n_sure, k) <= len(matches) <= len(expected):
        return False
    seen = set()
    for match, want in zip(matches, expected):
        truth = scores.get(match.relation_id)
        if truth is None or match.relation_id in seen:
            return False
        seen.add(match.relation_id)
        if abs(match.score - truth) > TOLERANCE or abs(truth - want) > TOLERANCE:
            return False
    return True
