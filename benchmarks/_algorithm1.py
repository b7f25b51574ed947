"""Algorithm 1 of the paper, verbatim: the paper-cost ExS measurement.

"foreach Relation r: foreach Attribute v in r: compute the similarity
score s between q' and w" — one attribute vector at a time, averaged
per relation (weighted by multiplicity, i.e. over every occurrence),
then sorted, thresholded and cut to the top k.

The library's ExS returns the same ranking without this loop: the mean
is linear in the value vectors, so each relation's score is one dot
product with its count-weighted centroid and ExS costs one row-wise
kernel call over R centroids, whatever the number of values.  The
paper's cost profile — ExS the slowest value-level method, growing
linearly with the corpus (Figure 3, claim 8 in EXPERIMENTS.md) — is a
property of *this* loop, so Figure 3's ExS row times it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.results import RelationMatch, SearchResult
from repro.core.semimg import FederationEmbeddings


class Algorithm1Search:
    """Single-query ExS as the paper's per-attribute loop."""

    name = "exs"

    def __init__(self, embeddings: FederationEmbeddings) -> None:
        self.embeddings = embeddings

    def scores(self, query: str) -> dict[str, float]:
        """Every relation's Algorithm-1 score for ``query``."""
        q = self.embeddings.encode_query(query).astype(np.float32)
        out: dict[str, float] = {}
        for relation in self.embeddings.relations:
            sims = np.fromiter(
                (float(np.dot(vector, q)) for vector in relation.vectors),
                dtype=np.float64,
                count=relation.n_unique,
            )
            out[relation.relation_id] = float(np.average(sims, weights=relation.counts))
        return out

    def search(self, query: str, k: int = 10, h: float = 0.0) -> SearchResult:
        start = time.perf_counter()
        cells = {r.relation_id: r.n_cells for r in self.embeddings.relations}
        ranked = sorted(
            ((rid, score) for rid, score in self.scores(query).items() if score >= h),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        matches = [RelationMatch(rid, score, {"n_values": cells[rid]}) for rid, score in ranked]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return SearchResult(query=query, method=self.name, matches=matches, elapsed_ms=elapsed_ms)
