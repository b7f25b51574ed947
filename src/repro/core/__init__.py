"""The paper's primary contribution: value-level semantic dataset discovery.

* :mod:`repro.core.semimg` — semantic representations (``semImg``) of
  attributes, relations and federations (paper Sec 4).
* :mod:`repro.core.exhaustive` — Exhaustive Search (Algorithm 1).
* :mod:`repro.core.anns` — Approximate Nearest Neighbours Search
  (Algorithm 2) over the PQ+HNSW vector database.
* :mod:`repro.core.cts` — Clustered Targeted Search (Algorithm 3):
  UMAP + HDBSCAN + medoid routing + in-cluster ANN.
* :mod:`repro.core.engine` — :class:`DiscoveryEngine`, the facade that
  indexes a federation once and serves all three methods.
"""

from repro.core.anns import ANNSearch
from repro.core.cts import ClusteredTargetedSearch
from repro.core.engine import DiscoveryEngine
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.lifecycle import FederationDelta, RWLock
from repro.core.results import BatchResult, RelationMatch, SearchResult, same_ranking
from repro.core.semimg import (
    FederationEmbeddings,
    RelationEmbedding,
    build_federation_embeddings,
    build_relation_embedding,
    load_federation_embeddings,
    save_federation_embeddings,
)

__all__ = [
    "ANNSearch",
    "BatchResult",
    "ClusteredTargetedSearch",
    "DiscoveryEngine",
    "ExhaustiveSearch",
    "FederationDelta",
    "FederationEmbeddings",
    "RWLock",
    "RelationEmbedding",
    "RelationMatch",
    "SearchResult",
    "build_federation_embeddings",
    "build_relation_embedding",
    "load_federation_embeddings",
    "same_ranking",
    "save_federation_embeddings",
]
