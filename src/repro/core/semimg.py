"""Semantic representations (``semImg``) of attributes, relations, federations.

The paper (Sec 4) defines the semantic representation of an attribute
``<n, v>`` as ``<n, semImg(v)>`` where ``semImg(v)`` is the encoder's
vector for the value, and the semantic representation of a relation as
the set of its tuples' representations.  This module materializes those
as numpy matrices.

Cells repeat heavily in tables (dates, categories, country names), so
each relation stores its *unique* ``(name, value)`` pairs together with
their multiplicities.  Averages weighted by multiplicity are exactly
the averages over all attribute occurrences that Algorithm 1 computes,
at a fraction of the memory — and since the vectors are unit-normalised
and the average is linear, Algorithm 1's score of a relation is the
query's dot product with one vector, the relation's count-weighted
centroid (:func:`relation_centroids`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.annotations import monotonic, requires_lock
from repro.datamodel.relation import Federation, Relation
from repro.embedding.base import SentenceEncoder
from repro.errors import ConfigurationError, StorageError
from repro.linalg.distances import normalize_rows
from repro.obs import MetricsRegistry
from repro.storage import (
    MIGRATE_HINT,
    MappedBuffer,
    SegmentSnapshot,
    SegmentWriter,
    open_snapshot,
)

__all__ = [
    "RelationEmbedding",
    "ValueTable",
    "FederationEmbeddings",
    "build_relation_embedding",
    "build_federation_embeddings",
    "embeddings_from_snapshot",
    "load_federation_embeddings",
    "relation_centroids",
    "save_federation_embeddings",
]


@dataclass(frozen=True)
class RelationEmbedding:
    """semImg of one relation.

    Attributes
    ----------
    relation_id:
        Qualified ``dataset/relation`` id.
    values:
        The unique cell values, aligned with ``vectors`` rows.
    attr_names:
        Attribute name of each unique (name, value) pair.
    vectors:
        ``(n_unique, dim)`` float32 unit vectors.
    counts:
        Multiplicity of each unique pair in the relation.
    """

    relation_id: str
    values: tuple[str, ...]
    attr_names: tuple[str, ...]
    vectors: np.ndarray
    counts: np.ndarray

    @property
    def n_unique(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_cells(self) -> int:
        """Total attribute occurrences represented."""
        return int(self.counts.sum())

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the embedding payload."""
        return int(self.vectors.nbytes + self.counts.nbytes)


def build_relation_embedding(
    relation_id: str, relation: Relation, encoder: SentenceEncoder
) -> RelationEmbedding:
    """Embed every attribute value of ``relation`` (deduplicated).

    Two pseudo attributes join the cell values:

    * ``__caption__`` — the caption, when present; both evaluation
      corpora provide captions and the paper consolidates body and
      caption for WikiTables.
    * ``__schema__`` — the header row as one string; in the web-table
      model headers are table content too, and attribute-style queries
      ("Irish counties area") often name a column rather than a value.
    """
    pair_counts: dict[tuple[str, str], int] = {}
    for attr in relation.attributes():
        key = (attr.name, attr.value)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    if relation.caption:
        pair_counts[("__caption__", relation.caption)] = (
            pair_counts.get(("__caption__", relation.caption), 0) + 1
        )
    if relation.schema:
        header = " ".join(relation.schema)
        pair_counts[("__schema__", header)] = pair_counts.get(("__schema__", header), 0) + 1
    if not pair_counts:
        raise ConfigurationError(f"relation {relation_id!r} has no content to embed")
    names, values = zip(*pair_counts.keys())
    vectors = encoder.encode(list(values)).astype(np.float32)
    vectors = normalize_rows(vectors).astype(np.float32)
    return RelationEmbedding(
        relation_id=relation_id,
        values=tuple(values),
        attr_names=tuple(names),
        vectors=vectors,
        counts=np.fromiter(pair_counts.values(), dtype=np.int64),
    )


def relation_centroids(relations: Sequence[RelationEmbedding]) -> np.ndarray:
    """The ``(R, d)`` float64 count-weighted centroid of each relation.

    Row ``r`` is ``Σᵢ (countᵢ / n_cells) · v̂ᵢ`` over relation ``r``'s
    unique value vectors: one CSR weight matrix times the relations'
    stacked rows.  The sparse product accumulates each output row from
    that row's own entries, in order, so a relation's centroid has the
    same bits whether it is computed over the whole federation or over
    one delta's relations — and from float32 vectors or their exact
    float64 copies.
    """
    sizes = [r.n_unique for r in relations]
    rows = np.concatenate([r.vectors for r in relations], dtype=np.float64)
    counts = np.concatenate([r.counts for r in relations]).astype(rows.dtype)
    indptr = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(sizes, dtype=np.intp)])
    totals = np.add.reduceat(counts, indptr[:-1])
    weights = sp.csr_matrix(
        (counts / np.repeat(totals, sizes), np.arange(rows.shape[0]), indptr),
        shape=(len(relations), rows.shape[0]),
    )
    return weights @ rows


class ValueTable:
    """Every distinct value text of a federation, once: the value store
    ANNS and CTS both search.

    Row ``i`` is the text ``values[i]`` with its float32 unit vector
    ``vectors[i]``.  Its occurrences, the (relation, attribute, count)
    pairs that hold the text, are positions ``indptr[i]:indptr[i + 1]``
    of a CSR, ascending in store order: ``occ_relation`` is the
    relation's position in the store, ``occ_flat`` the pair's position
    among all relations' pairs laid end to end (relation ``r``'s pairs
    start at ``offsets[r]``), ``occ_count`` its multiplicity.

    A fresh table numbers rows by first occurrence.  :meth:`patch` then
    absorbs one whole delta: the retired and updated relations drop
    their references, each value left with none is compacted away
    (order-preserving), and each value of the updated and added
    relations that is not live gets a new row at the end.  A row keeps
    the vector it was added with; encoders are deterministic, so every
    relation holding a text holds the same vector for it.
    """

    def __init__(self, relations: Sequence[RelationEmbedding]) -> None:
        self.values: list[str] = []
        self.row_of: dict[str, int] = {}
        self.vectors = np.empty((0, relations[0].dim), dtype=np.float32)
        #: Relation id -> the table row of each of its (name, value) pairs.
        self._pair_rows: dict[str, np.ndarray] = {}
        self._append(relations)
        self._index_occurrences(relations)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Vectors, the occurrence CSR and the pair -> row maps."""
        arrays = [self.vectors, self.indptr, self.offsets, self.occ_relation]
        arrays += [self.occ_flat, self.occ_count, *self._pair_rows.values()]
        return sum(int(a.nbytes) for a in arrays)

    def patch(
        self,
        relations: Sequence[RelationEmbedding],
        added: Sequence[RelationEmbedding],
        updated: Sequence[RelationEmbedding],
        removed: Sequence[str],
    ) -> None:
        """Absorb one delta that ``relations`` (the store's new list)
        already holds."""
        for relation_id in [*removed, *(r.relation_id for r in updated)]:
            del self._pair_rows[relation_id]
        live = np.zeros(len(self.values), dtype=bool)
        live[np.concatenate([np.empty(0, np.intp), *self._pair_rows.values()])] = True
        if not live.all():
            remap = np.cumsum(live) - 1
            self.vectors = self.vectors[live]
            self.values = [v for v, keep in zip(self.values, live.tolist()) if keep]
            self.row_of = {value: row for row, value in enumerate(self.values)}
            self._pair_rows = {rid: remap[rows] for rid, rows in self._pair_rows.items()}
        self._append([*updated, *added])
        self._index_occurrences(relations)

    def by_first_occurrence(self) -> np.ndarray:
        """Every row, ordered by where its text first occurs in store
        order: the order a fresh table would number them in."""
        return np.argsort(self.occ_flat[self.indptr[:-1]])

    def occurrences(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR positions of ``rows``' occurrences, row after row,
        and for each the index into ``rows`` it belongs to."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        which = np.repeat(np.arange(rows.shape[0]), lengths)
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return shift + np.arange(which.shape[0]), which

    def _append(self, relations: Sequence[RelationEmbedding]) -> None:
        """Map each relation's pairs to rows, adding a row per new text."""
        fresh: list[np.ndarray] = []
        for rel in relations:
            rows: list[int] = []
            new: list[int] = []
            for i, value in enumerate(rel.values):
                row = self.row_of.get(value)
                if row is None:
                    row = self.row_of[value] = len(self.values)
                    self.values.append(value)
                    new.append(i)
                rows.append(row)
            self._pair_rows[rel.relation_id] = np.asarray(rows, dtype=np.intp)
            if new:
                fresh.append(rel.vectors[new])
        if fresh:
            self.vectors = np.concatenate([self.vectors, *fresh], dtype=np.float32)

    def _index_occurrences(self, relations: Sequence[RelationEmbedding]) -> None:
        """Rebuild the occurrence CSR over the store order."""
        sizes = np.asarray([r.n_unique for r in relations], dtype=np.intp)
        keys = np.concatenate([self._pair_rows[r.relation_id] for r in relations])
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.occ_flat = np.argsort(keys, kind="stable")
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=len(self)))])
        self.occ_relation = np.repeat(np.arange(len(relations)), sizes)[self.occ_flat]
        self.occ_count = np.concatenate([r.counts for r in relations])[self.occ_flat]


@monotonic("generation")
@dataclass
class FederationEmbeddings:
    """Mutable semImg store of a whole federation plus its encoder.

    Keeping the encoder here guarantees queries are embedded in the
    same space as the data — and, as the paper emphasizes, data
    vectorization is independent of any query.

    The store supports an incremental lifecycle: :meth:`add_relation`,
    :meth:`update_relation` and :meth:`remove_relation` mutate the
    relation list without touching any other relation's vectors (only
    the changed relation is re-embedded), and every mutation bumps the
    monotonically increasing :attr:`generation` counter so downstream
    indexes can tell which store state they reflect.
    """

    relations: list[RelationEmbedding]
    encoder: SentenceEncoder
    build_seconds: float = 0.0
    #: Monotonically increasing mutation counter; 0 for a fresh build.
    generation: int = 0
    #: The mapped ``vectors`` segment the relation vectors view (``mmap``
    #: loads only), held so :meth:`release_backing` can close it.
    backing: "MappedBuffer | None" = field(default=None, repr=False, compare=False)
    #: :func:`relation_centroids` of every relation as read from the
    #: snapshot, with the generation it reflects: ``(matrix, generation)``.
    saved_centroids: "tuple[np.ndarray, int] | None" = field(
        default=None, repr=False, compare=False
    )
    #: The value table and the generation it reflects.
    _table: "ValueTable | None" = field(default=None, init=False, repr=False, compare=False)
    _table_generation: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        if not self.relations:
            raise ConfigurationError("empty federation embeddings")
        return self.relations[0].dim

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def total_vectors(self) -> int:
        return sum(r.n_unique for r in self.relations)

    @property
    def nbytes(self) -> int:
        """In-memory footprint across all relation embeddings."""
        return sum(r.nbytes for r in self.relations)

    def relation_ids(self) -> list[str]:
        return [r.relation_id for r in self.relations]

    # -- incremental lifecycle ------------------------------------------

    def position(self, relation_id: str) -> int:
        """Index of ``relation_id`` in :attr:`relations` (or raise)."""
        for i, rel in enumerate(self.relations):
            if rel.relation_id == relation_id:
                return i
        raise ConfigurationError(f"relation {relation_id!r} not in federation embeddings")

    def __contains__(self, relation_id: str) -> bool:
        return any(r.relation_id == relation_id for r in self.relations)

    def _as_embedding(
        self, relation_id: str, relation: "Relation | RelationEmbedding"
    ) -> RelationEmbedding:
        """Embed a relation — or accept one embedded ahead of time, so
        callers can do the encoding outside any lock they hold."""
        if isinstance(relation, RelationEmbedding):
            if relation.relation_id != relation_id:
                raise ConfigurationError(
                    f"embedding is for {relation.relation_id!r}, not {relation_id!r}"
                )
            embedding = relation
        else:
            embedding = build_relation_embedding(relation_id, relation, self.encoder)
        if self.relations and embedding.dim != self.dim:
            raise ConfigurationError(
                f"relation {relation_id!r} embeds to {embedding.dim}-dim but "
                f"the federation is {self.dim}-dim"
            )
        return embedding

    @requires_lock("write")
    def add_relation(
        self, relation_id: str, relation: "Relation | RelationEmbedding"
    ) -> RelationEmbedding:
        """Embed and append one new relation; untouched relations are
        never recomputed."""
        if relation_id in self:
            raise ConfigurationError(f"relation {relation_id!r} already in federation")
        embedding = self._as_embedding(relation_id, relation)
        self.relations.append(embedding)
        self.generation += 1
        return embedding

    @requires_lock("write")
    def update_relation(
        self, relation_id: str, relation: "Relation | RelationEmbedding"
    ) -> RelationEmbedding:
        """Re-embed one revised relation in place (same position)."""
        pos = self.position(relation_id)
        embedding = self._as_embedding(relation_id, relation)
        self.relations[pos] = embedding
        self.generation += 1
        return embedding

    @requires_lock("write")
    def remove_relation(self, relation_id: str) -> RelationEmbedding:
        """Retire one relation; returns its (now detached) embedding."""
        pos = self.position(relation_id)
        if len(self.relations) == 1:
            raise ConfigurationError(
                "cannot remove the last relation; federation embeddings must stay non-empty"
            )
        removed = self.relations.pop(pos)
        self.generation += 1
        return removed

    def encode_query(self, query: str) -> np.ndarray:
        """semImg(Q): the query's unit vector in the shared space."""
        vector = self.encoder.encode_one(query)
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector

    def centroids(self) -> np.ndarray:
        """Every relation's centroid (:func:`relation_centroids`), in
        store order: the snapshot's copy while no delta has moved the
        generation, computed otherwise.  The saved rows are the bits a
        computation would give, so a load skips the pass over every
        value vector without changing a score."""
        if self.saved_centroids is not None and self.saved_centroids[1] == self.generation:
            return self.saved_centroids[0]
        return relation_centroids(self.relations)

    def value_table(self) -> "ValueTable":
        """The :class:`ValueTable` ANNS and CTS read, built over the
        relations on the first call and patched by :meth:`absorb_delta`
        from then on; a mutation no delta reported rebuilds it.  ExS
        never asks, so ExS-only stores hold none."""
        if self._table is None or self._table_generation != self.generation:
            self._table = ValueTable(self.relations)
            self._table_generation = self.generation
        return self._table

    @property
    def table_nbytes(self) -> int:
        """Resident bytes of the value table; 0 until it is built."""
        return self._table.nbytes if self._table is not None else 0

    @requires_lock("write")
    def absorb_delta(
        self,
        added: Sequence[RelationEmbedding],
        updated: Sequence[RelationEmbedding],
        removed: Sequence[str],
    ) -> None:
        """Patch the value table, if built, with one whole delta that
        the relation list already holds (one generation per change)."""
        before = self.generation - len(added) - len(updated) - len(removed)
        if self._table is not None and self._table_generation == before:
            self._table.patch(self.relations, added, updated, removed)
            self._table_generation = self.generation

    def release_backing(self) -> None:
        """Close the mapped snapshot file this store holds.  The pages
        survive as long as any relation vectors still view them."""
        backing, self.backing = self.backing, None
        if backing is not None:
            backing.close()


#: ``meta["kind"]`` tag of a federation-embeddings snapshot.
SNAPSHOT_KIND = "federation-embeddings"


def save_federation_embeddings(
    embeddings: FederationEmbeddings,
    path: "str | Path",
    metrics: "MetricsRegistry | None" = None,
) -> None:
    """Persist federation embeddings as one segment snapshot directory.

    Vectorizing is the expensive offline step; persisting it lets a
    deployment embed once and serve many sessions.  The encoder itself
    is not stored — load with the same encoder configuration so query
    vectors stay in the same space.

    Layout: one ``vectors`` segment holding *all* relations' unit
    vectors stacked in float32 (the embeddings' native precision and
    the scan dtype, so a mapped load serves the exact bytes a cold
    build would compute), ``counts`` and
    ``block_sizes`` side arrays, the float64 ``centroids`` ExS-mean
    scans (so a load need not touch every value vector to serve it),
    and a ``relations`` JSON document with ids, cell values and
    attribute names.  The stacked layout is what makes ``mmap=True``
    loads zero-copy: every relation's vectors view the mapped file.
    """
    relations = embeddings.relations
    dim = embeddings.dim  # an empty store raises here
    stack = np.vstack([r.vectors for r in relations]).astype(np.float32, copy=False)
    counts = np.concatenate([r.counts for r in relations]).astype(np.int64, copy=False)
    writer = SegmentWriter(
        path,
        generation=embeddings.generation,
        meta={
            "kind": SNAPSHOT_KIND,
            "dim": int(dim),
            "dtype": stack.dtype.name,
            "n_relations": len(relations),
            "build_seconds": float(embeddings.build_seconds),
        },
        metrics=metrics,
    )
    writer.add_array("vectors", stack)
    writer.add_array("counts", counts)
    writer.add_array(
        "block_sizes", np.array([r.n_unique for r in relations], dtype=np.int64)
    )
    writer.add_array("centroids", embeddings.centroids())
    writer.add_json(
        "relations",
        {
            "ids": [r.relation_id for r in relations],
            "values": [list(r.values) for r in relations],
            "names": [list(r.attr_names) for r in relations],
        },
    )
    writer.commit()


def embeddings_from_snapshot(
    snapshot: SegmentSnapshot, encoder: SentenceEncoder, mmap: bool = False
) -> FederationEmbeddings:
    """The store an open snapshot holds (see :func:`load_federation_embeddings`).

    Only a ``federation-embeddings`` snapshot that holds float32
    vectors, relations and their ``centroids`` loads.  Every array's
    shape is checked before the store exists; a refusal closes the
    mapped vectors.
    """
    meta = snapshot.meta
    if meta.get("kind") != SNAPSHOT_KIND:
        raise StorageError(
            f"snapshot at {snapshot.path} is a {meta.get('kind')!r} snapshot, "
            f"not {SNAPSHOT_KIND!r}; {MIGRATE_HINT}"
        )
    stored = np.dtype(meta.get("dtype", np.float32))
    if stored != np.float32:
        raise StorageError(
            f"snapshot at {snapshot.path} stores {stored.name} vectors, not float32; "
            f"{MIGRATE_HINT}"
        )
    dim = int(meta["dim"])
    if dim != encoder.dim:
        raise ConfigurationError(
            f"stored embeddings are {dim}-dim but the encoder produces {encoder.dim}-dim vectors"
        )
    doc = snapshot.json("relations")
    ids = doc["ids"]
    if not ids:
        raise StorageError(f"snapshot at {snapshot.path} holds no relations")
    if "centroids" not in snapshot.segment_names():
        raise StorageError(
            f"snapshot at {snapshot.path} has no centroids segment; {MIGRATE_HINT}"
        )
    counts = snapshot.array("counts")
    sizes = snapshot.array("block_sizes")
    centroids = snapshot.array("centroids")
    backing = snapshot.mapped("vectors") if mmap else None
    try:
        matrix = backing.array if backing is not None else snapshot.array("vectors")
        n_rows = int(sizes.sum())
        if (
            len(sizes) != len(ids)
            or matrix.shape != (n_rows, dim)
            or counts.shape != (n_rows,)
            or centroids.shape != (len(ids), dim)
        ):
            raise StorageError(
                f"snapshot at {snapshot.path} stores {matrix.shape} vectors, "
                f"{counts.shape} counts and {centroids.shape} centroids for "
                f"{len(ids)} relations of {n_rows} rows at dim {dim}"
            )
        relations: list[RelationEmbedding] = []
        start = 0
        for i, relation_id in enumerate(ids):
            stop = start + int(sizes[i])
            relations.append(
                RelationEmbedding(
                    relation_id=str(relation_id),
                    values=tuple(str(v) for v in doc["values"][i]),
                    attr_names=tuple(str(n) for n in doc["names"][i]),
                    vectors=matrix[start:stop],
                    counts=counts[start:stop],
                )
            )
            start = stop
        embeddings = FederationEmbeddings(
            relations=relations,
            encoder=encoder,
            build_seconds=float(meta.get("build_seconds", 0.0)),
            generation=snapshot.generation,
            saved_centroids=(centroids, snapshot.generation),
            backing=backing,
        )
    except BaseException:
        # A malformed snapshot must not strand the mapped pages: until
        # the store holds it, nobody else would ever close this buffer.
        if backing is not None:
            backing.close()
        raise
    return embeddings


def load_federation_embeddings(
    path: "str | Path",
    encoder: SentenceEncoder,
    mmap: bool = False,
    metrics: "MetricsRegistry | None" = None,
) -> FederationEmbeddings:
    """Restore embeddings saved by :func:`save_federation_embeddings`.

    ``encoder`` must match the configuration used when building; a
    dimensionality mismatch is rejected immediately.

    ``mmap=True`` memory-maps the stacked ``vectors`` segment read-only
    instead of materializing it: the call returns in milliseconds with
    every relation's ``vectors`` a zero-copy view into the mapping, and
    data pages fault in lazily on first scan.  Eager loads verify the
    full crc32 digests; mapped loads check payload sizes only (hashing
    would page everything in).  A path that is not a current segment
    snapshot raises :class:`~repro.errors.StorageError`; one saved in a
    retired layout converts with ``python -m repro.storage migrate``.
    """
    return embeddings_from_snapshot(open_snapshot(path, metrics=metrics), encoder, mmap=mmap)


def build_federation_embeddings(
    federation: Federation, encoder: SentenceEncoder
) -> FederationEmbeddings:
    """Vectorize an entire federation (the offline indexing step)."""
    start = time.perf_counter()
    relations = [
        build_relation_embedding(relation_id, relation, encoder)
        for relation_id, relation in federation.relations()
    ]
    if not relations:
        raise ConfigurationError("federation contains no relations")
    elapsed = time.perf_counter() - start
    return FederationEmbeddings(relations=relations, encoder=encoder, build_seconds=elapsed)
