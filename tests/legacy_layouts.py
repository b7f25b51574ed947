"""Writers of the retired snapshot layouts, for the migration tests.

The library no longer writes or loads any of these; only
``repro.storage.migrate`` reads them.  Each writer reproduces what the
library used to put on disk:

* :func:`save_npz` — the single-file compressed archive, one array per
  relation and field;
* :func:`save_sharded` — a ``sharded-index`` root manifest over
  ``shard-<i>/`` federation-embeddings snapshots;
* :func:`save_without_centroids` — a federation-embeddings snapshot from
  before the ``centroids`` segment existed;
* :func:`save_float64` — a federation-embeddings snapshot of float64
  vectors, as engines built with ``dtype=float64`` saved it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.semimg import FederationEmbeddings, save_federation_embeddings
from repro.storage import SegmentWriter, open_snapshot


def save_npz(store: FederationEmbeddings, path: Path, metadata: bool = True) -> None:
    """The archive layout.  ``metadata=False`` leaves out the
    ``build_seconds`` and ``generation`` fields the first archives lacked."""
    arrays: dict[str, np.ndarray] = {
        "relation_ids": np.array(store.relation_ids()),
    }
    if metadata:
        arrays["build_seconds"] = np.array([store.build_seconds], dtype=np.float64)
        arrays["generation"] = np.array([store.generation], dtype=np.int64)
    for i, rel in enumerate(store.relations):
        arrays[f"vectors_{i}"] = rel.vectors
        arrays[f"counts_{i}"] = rel.counts
        arrays[f"values_{i}"] = np.array(rel.values)
        arrays[f"names_{i}"] = np.array(rel.attr_names)
    with open(path, "wb") as fh:  # a path would gain an .npz suffix
        np.savez_compressed(fh, **arrays)


def save_sharded(
    store: FederationEmbeddings,
    path: Path,
    shards: int,
    dtype: type = np.float32,
    generations: "list[int] | None" = None,
) -> None:
    """The sharded layout: relation ``i`` in ``shard-<i % shards>/`` (a
    federation-embeddings snapshot at generation ``10 + shard``), then
    the root manifest carrying the relation order and the generation it
    expects of each shard (``generations``; the true ones by default)."""
    parts = [
        FederationEmbeddings(
            relations=store.relations[shard::shards],
            encoder=store.encoder,
            build_seconds=store.build_seconds,
            generation=10 + shard,
        )
        for shard in range(shards)
    ]
    for shard, part in enumerate(parts):
        _save(part, path / f"shard-{shard}", dtype)
    SegmentWriter(
        path,
        generation=store.generation,
        meta={
            "kind": "sharded-index",
            "dim": store.dim,
            "dtype": np.dtype(dtype).name,
            "sharded": {
                "shards": shards,
                "seed": 0,
                "relation_order": store.relation_ids(),
                "shard_generations": generations or [part.generation for part in parts],
            },
        },
    ).commit()


def save_without_centroids(
    store: FederationEmbeddings, path: Path, dtype: type = np.float32
) -> None:
    """A current snapshot, recommitted without its ``centroids`` segment."""
    _save(store, path, dtype, centroids=False)


def save_float64(store: FederationEmbeddings, path: Path) -> None:
    """A current snapshot, recommitted with float64 vectors."""
    _save(store, path, np.float64)


def _save(
    store: FederationEmbeddings, path: Path, dtype: type, centroids: bool = True
) -> None:
    """A current snapshot, recommitted with its vectors at ``dtype`` and,
    unless ``centroids``, without its ``centroids`` segment."""
    save_federation_embeddings(store, path)
    snapshot = open_snapshot(path)
    if np.dtype(dtype) == np.float32 and centroids:
        return
    meta = {**snapshot.meta, "dtype": np.dtype(dtype).name}
    writer = SegmentWriter(path, generation=snapshot.generation, meta=meta)
    for name in snapshot.segment_names():
        array = snapshot.array(name)
        if name == "vectors":
            writer.add_array(name, array.astype(dtype))
        elif name != "centroids" or centroids:
            writer.add_array(name, array)
    writer.add_json("relations", snapshot.json("relations"))
    writer.commit()
