"""``python -m repro.storage migrate SRC DST``: retired layouts in, one
current snapshot out.

The load path reads one layout, a ``federation-embeddings`` snapshot
that carries ``centroids``.  This module is the only reader of the three
older ones: a single-file ``.npz`` archive; a ``sharded-index`` root
over ``shard-<i>/`` sub-snapshots, as engines with ``shards > 1`` saved
it; a snapshot saved before the ``centroids`` segment existed; and a
snapshot of float64 vectors.  The input is read eagerly (digests
verified) and checked before anything is written;
:func:`~repro.core.semimg.save_federation_embeddings` writes it as
float32, at the stored generation and build time, into a hidden
sibling, renamed to ``DST`` only when complete.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import zipfile
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from repro.core.semimg import (
    SNAPSHOT_KIND,
    FederationEmbeddings,
    RelationEmbedding,
    save_federation_embeddings,
)
from repro.embedding.semantic import SemanticHashEncoder
from repro.errors import ReproError, StorageError
from repro.storage.segment import SegmentSnapshot, open_snapshot

__all__ = ["main", "migrate"]

SHARDED_KIND = "sharded-index"


def _relation(
    relation_id: object,
    values: Iterable[object],
    names: Iterable[object],
    vectors: np.ndarray,
    counts: np.ndarray,
) -> RelationEmbedding:
    return RelationEmbedding(
        str(relation_id), tuple(map(str, values)), tuple(map(str, names)), vectors, counts
    )


def _read_npz(path: Path) -> tuple[list[RelationEmbedding], int, float]:
    with np.load(path, allow_pickle=False) as archive:
        data = {name: archive[name] for name in archive.files}
    relations = [
        _relation(rid, *(data[f"{field}_{i}"] for field in ("values", "names", "vectors", "counts")))
        for i, rid in enumerate(data["relation_ids"])
    ]
    # The first archives predate these two fields.
    generation = int(data["generation"][0]) if "generation" in data else 0
    build_seconds = float(data["build_seconds"][0]) if "build_seconds" in data else 0.0
    return relations, generation, build_seconds


def _read_segments(snapshot: SegmentSnapshot) -> list[RelationEmbedding]:
    doc = snapshot.json("relations")
    vectors, counts = snapshot.array("vectors"), snapshot.array("counts")
    sizes = snapshot.array("block_sizes")
    stops = np.cumsum(sizes)
    starts = stops - sizes
    return [
        _relation(rid, values, names, vectors[start:stop], counts[start:stop])
        for rid, values, names, start, stop in zip(
            doc["ids"], doc["values"], doc["names"], starts, stops, strict=True
        )
    ]


def _read_sharded(root: SegmentSnapshot) -> tuple[list[RelationEmbedding], float]:
    """The relations in the root's order, and the longest shard build.
    A shard at another generation than the root recorded, or shards not
    holding exactly the root's relations, are a torn multi-shard save."""
    info = root.meta["sharded"]
    order = [str(rid) for rid in info["relation_order"]]
    shards = [open_snapshot(root.path / f"shard-{i}") for i in range(int(info["shards"]))]
    for i, (shard, want) in enumerate(zip(shards, info.get("shard_generations") or [])):
        if shard.generation != int(want):
            raise StorageError(
                f"shard-{i} of snapshot {root.path} is at generation "
                f"{shard.generation}, root manifest expects {want} — torn multi-shard save?"
            )
    held = [rel for shard in shards for rel in _read_segments(shard)]
    by_id = {rel.relation_id: rel for rel in held}
    if len(held) != len(order) or set(by_id) != set(order):
        raise StorageError(
            f"snapshot {root.path} shard contents disagree with the root "
            "manifest's relation order"
        )
    build_seconds = max((float(s.meta.get("build_seconds", 0.0)) for s in shards), default=0.0)
    return [by_id[rid] for rid in order], build_seconds


def _read_store(path: "str | Path") -> FederationEmbeddings:
    """The store a snapshot in any layout holds.  Anything unreadable or
    inconsistent raises :class:`~repro.errors.StorageError`."""
    path = Path(path)
    try:
        if path.is_file():
            relations, generation, build_seconds = _read_npz(path)
        else:
            snapshot = open_snapshot(path)
            kind = snapshot.meta.get("kind")
            if kind == SHARDED_KIND:
                relations, build_seconds = _read_sharded(snapshot)
            elif kind == SNAPSHOT_KIND:
                relations = _read_segments(snapshot)
                build_seconds = float(snapshot.meta.get("build_seconds", 0.0))
            else:
                raise StorageError(f"{path} holds a {kind!r} snapshot, not federation embeddings")
            generation = snapshot.generation
    except (KeyError, IndexError, TypeError, ValueError, OSError, zipfile.BadZipFile) as exc:
        raise StorageError(f"cannot read {path} as a federation snapshot: {exc!r}") from exc
    if not relations:
        raise StorageError(f"{path} holds no relations; there is nothing to migrate")
    dim = relations[0].dim
    for rel in relations:
        rows = {rel.vectors.shape[0], len(rel.counts), len(rel.values), len(rel.attr_names)}
        if rel.vectors.shape[1:] != (dim,) or rel.counts.ndim != 1 or len(rows) != 1:
            raise StorageError(f"relation {rel.relation_id!r} of {path} is inconsistent")
    # The encoder is not stored; any encoder of the stored dim stands in.
    return FederationEmbeddings(
        relations=relations,
        encoder=SemanticHashEncoder(dim=dim),
        build_seconds=build_seconds,
        generation=generation,
    )


def migrate(src: "str | Path", dst: "str | Path") -> Path:
    """Write the store ``src`` holds as one current snapshot at ``dst``,
    which must not exist yet."""
    dst = Path(dst)
    if dst.exists():
        raise StorageError(f"{dst} already exists; migrate writes a new snapshot directory")
    store = _read_store(src)
    staging = dst.with_name(f".{dst.name}.migrating")
    shutil.rmtree(staging, ignore_errors=True)
    try:
        save_federation_embeddings(store, staging)
        staging.rename(dst)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return dst


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.storage")
    commands = parser.add_subparsers(dest="command", required=True)
    command = commands.add_parser("migrate", help="convert a retired snapshot layout")
    command.add_argument("src", help="npz archive, sharded root or snapshot directory")
    command.add_argument("dst", help="new snapshot directory (must not exist)")
    args = parser.parse_args(argv)
    try:
        migrate(args.src, args.dst)
    except ReproError as exc:
        print(f"migrate: {exc}", file=sys.stderr)
        return 1
    print(f"migrated {args.src} -> {args.dst}")
    return 0
