"""Known-bad fixture for RL008: blocking work reachable from async serving.

Linted under the virtual path ``src/repro/serving/rl008_bad.py`` (the
rule only roots at async functions inside ``repro/serving/``).  Line
numbers are asserted exactly in tests/test_analysis.py.
"""

import time

from repro.linalg import cosine_similarity, gemm_candidates, rowwise_scores


async def score_inline(query, store):
    scores = cosine_similarity(query, store)  # line 14: GEMM on the loop
    time.sleep(0.001)  # line 15: blocking sleep on the loop
    return scores


async def read_snapshot(path):
    return _slurp(path)  # line 20: reaches open() through _slurp


def _slurp(path):
    with open(path) as fh:
        return fh.read()


async def score_offloaded(query, store, backend):
    # Executor hop: the callable crosses as a bare reference, no edge.
    return await backend.submit(cosine_similarity, query, store)


async def score_centroids(centroids, queries):
    return rowwise_scores(centroids, queries)  # line 34: ExS's scan kernel on the loop


async def bound_centroids(centroids, queries, max_norm):
    return gemm_candidates(centroids, queries, 20, 0.0, max_norm)  # line 38: ExS's bound pass
