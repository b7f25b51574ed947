"""The vector database: named collections."""

from __future__ import annotations

import numpy as np

from repro.errors import CollectionExistsError, CollectionNotFoundError
from repro.linalg.distances import Metric
from repro.obs import MetricsRegistry
from repro.vectordb.collection import Collection

__all__ = ["VectorDatabase"]


class VectorDatabase:
    """An in-process, multi-collection vector store.

    Collections are created with :meth:`create_collection` and addressed
    by name.  Nothing here persists: search methods rebuild their
    collections from the federation embeddings, which
    :meth:`~repro.core.DiscoveryEngine.save_index` persists.  A shared
    :class:`MetricsRegistry` may be passed in so every collection's
    scan counters land in one place (search methods pass the engine's).
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._collections: dict[str, Collection] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- collection management -------------------------------------------

    def create_collection(
        self,
        name: str,
        dim: int,
        metric: Metric = Metric.COSINE,
        dtype: "str | np.dtype | type" = np.float64,
    ) -> Collection:
        """Create a new named collection (wired to the db's metrics)."""
        if name in self._collections:
            raise CollectionExistsError(f"collection {name!r} already exists")
        collection = Collection(name, dim, metric, metrics=self.metrics, dtype=dtype)
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str) -> Collection:
        """Fetch a collection by name."""
        collection = self._collections.get(name)
        if collection is None:
            raise CollectionNotFoundError(f"no collection named {name!r}")
        return collection

    def drop_collection(self, name: str) -> None:
        """Delete a collection and its contents."""
        if name not in self._collections:
            raise CollectionNotFoundError(f"no collection named {name!r}")
        del self._collections[name]

    def list_collections(self) -> list[str]:
        """Names of all collections, sorted."""
        return sorted(self._collections)

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __len__(self) -> int:
        return len(self._collections)
