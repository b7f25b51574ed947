"""Clustered Targeted Search (CTS) — Algorithm 3, the paper's main method.

Offline pipeline (Sec 4.3):

1. vectorize every attribute value (shared with ExS/ANNS);
2. reduce the vectors with UMAP (optionally PCA-preprocessed, and with
   the kNN graph precomputed, as the paper does);
3. cluster the reduced vectors with HDBSCAN;
4. compute each cluster's medoid ("HDBSCAN does not automatically
   provide cluster centers ... we manually compute the clusters
   medoids") and store the medoids in one collection, the clusters'
   retrieval keys; each cluster's members are held as a CSR map of
   rows of the store's value table, which also holds their vectors.

Query pipeline: embed the query with the same sentence transformer and
rank cluster medoids by cosine similarity in the encoder's space (each
medoid is a real data point, so its original vector is known); bring
the query into the reduced space with a landmark transform and search
(ANNS-style) only inside the ``top_clusters`` best clusters; finally
score candidate relations *in the original embedding space* so scores
and the threshold ``h`` stay on the same cosine scale as ExS and ANNS.

HDBSCAN labels outliers as noise; a searchable index cannot drop them,
so noise points are attached to the cluster of their nearest medoid
(:attr:`n_noise_points` reports how many were absorbed).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

import numpy as np

from repro.clustering.hdbscan_ import HDBSCAN
from repro.clustering.medoids import medoid_index
from repro.core.base import SearchMethod, evidence_scores
from repro.core.results import RelationMatch
from repro.core.semimg import RelationEmbedding
from repro.dimred.knn_graph import build_knn_graph
from repro.dimred.pca import PCA
from repro.dimred.umap_ import UMAP
from repro.errors import ConfigurationError
from repro.linalg.distances import Metric, euclidean_distance
from repro.vectordb.collection import Collection

__all__ = ["ClusteredTargetedSearch"]


class ClusteredTargetedSearch(SearchMethod):
    """UMAP + HDBSCAN + medoid-routed targeted search.

    Parameters
    ----------
    top_clusters:
        How many nearest clusters a query is routed into.
    per_cluster_candidates:
        Nearest value vectors fetched from each routed cluster.
    umap_components / umap_neighbors / umap_epochs:
        UMAP configuration for the reduction step.
    pca_components:
        Optional PCA pre-reduction before UMAP (0 disables).  Standard
        practice for high-dimensional text embeddings; also covered by
        an ablation benchmark.
    min_cluster_size / min_samples / cluster_selection_method:
        HDBSCAN configuration; CTS defaults to leaf selection, which
        yields many small fine-grained clusters — Excess-of-Mass tends
        to keep one giant low-density cluster of generic cell values
        (dates, codes, measures) that would swallow most of the corpus
        and defeat targeted routing.
    evidence_size:
        The relation score is the average similarity of its
        ``evidence_size`` best candidates, counting missing slots as
        zero (same rationale as in :class:`repro.core.anns.ANNSearch`).
    n_landmarks:
        Queries are brought into the reduced space via a landmark
        transform: distances to a fixed set of landmark points (all
        cluster medoids plus a random sample) instead of the full
        training set, keeping query cost independent of corpus size.
    drift_threshold:
        Incremental-lifecycle knob.  Federation deltas maintain the
        clustering partially — new/updated values are assigned to
        their nearest existing medoid — while a drift statistic
        accumulates: the fraction of points assigned post-hoc since
        the last clustering, plus the mean medoid displacement
        (normalized by the build-time inter-medoid distance).  When
        drift exceeds this threshold the index re-clusters from
        scratch automatically (``cts.rebuilds`` counts these).
    seed:
        Seed shared by the reduction pipeline.
    """

    name = "cts"

    def __init__(
        self,
        top_clusters: int = 20,
        per_cluster_candidates: int = 64,
        umap_components: int = 16,
        umap_neighbors: int = 15,
        umap_epochs: int = 120,
        pca_components: int = 48,
        min_cluster_size: int = 15,
        min_samples: int | None = None,
        cluster_selection_method: str = "leaf",
        evidence_size: int = 16,
        n_landmarks: int = 256,
        drift_threshold: float = 0.25,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if top_clusters < 1:
            raise ConfigurationError("top_clusters must be >= 1")
        if per_cluster_candidates < 1:
            raise ConfigurationError("per_cluster_candidates must be >= 1")
        self.top_clusters = top_clusters
        self.per_cluster_candidates = per_cluster_candidates
        self.umap_components = umap_components
        self.umap_neighbors = umap_neighbors
        self.umap_epochs = umap_epochs
        self.pca_components = pca_components
        self.min_cluster_size = min_cluster_size
        self.min_samples = min_samples
        self.cluster_selection_method = cluster_selection_method
        if evidence_size < 1:
            raise ConfigurationError("evidence_size must be >= 1")
        self.evidence_size = evidence_size
        self.n_landmarks = n_landmarks
        if drift_threshold <= 0.0:
            raise ConfigurationError("drift_threshold must be > 0")
        self.drift_threshold = drift_threshold
        self.seed = seed

        self._medoids: Collection | None = None
        self._pca: PCA | None = None
        # Cluster of each value-table row.
        self._labels = np.empty(0, dtype=np.int64)
        # Cluster id -> the value-table row of its medoid.
        self._medoid_rows: dict[int, int] = {}
        self._n_noise = 0
        self._landmark_working: np.ndarray | None = None
        self._landmark_reduced: np.ndarray | None = None
        # Query-path lookup arrays (see _index_query_arrays).
        self._cluster_rows = np.empty(0, dtype=np.intp)
        self._cluster_bounds: dict[int, tuple[int, int]] = {}
        self._medoid_cids = np.empty(0, dtype=np.int64)
        # Incremental lifecycle state: per-value cluster assignments and
        # reduced coordinates survive deltas, so partial maintenance
        # only has to place values it has never seen.
        self._cluster_of_value: dict[str, int] = {}
        self._reduced_of_value: dict[str, np.ndarray] = {}
        self._medoid_value: dict[int, str] = {}
        self._medoid_reduced_at_build: dict[int, np.ndarray] = {}
        self._medoid_scale = 1.0
        self._drift_assigned = 0

    def index_bytes(self) -> int:
        """Resident bytes CTS owns: its cluster maps and the medoid
        collection.  The value vectors are the store's value table."""
        if self._medoids is None:
            return 0
        maps = self._labels.nbytes + self._cluster_rows.nbytes + self._medoid_cids.nbytes
        return int(maps) + int(self._medoids.vectors.nbytes) + self._medoids.nbytes

    # -- offline indexing --------------------------------------------------

    def _build(self) -> None:
        # Reduce and cluster the store's value table: globally UNIQUE
        # values, in first-occurrence order.  Common cell values
        # ("2021", country names, category labels) repeat across
        # relations with byte-identical vectors; left in place, each
        # point's kNN list fills up with its own duplicates at distance
        # zero, UMAP's fuzzy graph degenerates into duplicate islands
        # and HDBSCAN clusters stop reflecting semantics.  Clustering
        # the distinct vectors and mapping clusters back to every
        # occurrence restores the semantic neighbourhood structure (and
        # shrinks the quadratic MST/kNN work).
        table = self.embeddings.value_table()
        order = table.by_first_occurrence()
        unique_values = [table.values[row] for row in order.tolist()]
        working, reduced_unique = self._reduce(table.vectors[order].astype(np.float64))
        labels_unique = self._cluster(reduced_unique)
        labels_unique = self._absorb_noise(reduced_unique, labels_unique)
        self._pick_landmarks(working, reduced_unique)
        # Lifecycle anchors: per-value assignments plus the build-time
        # medoid positions drift is measured against.
        self._cluster_of_value = {
            v: int(labels_unique[u]) for u, v in enumerate(unique_values)
        }
        self._reduced_of_value = {v: reduced_unique[u] for u, v in enumerate(unique_values)}
        self._medoid_value = {cid: unique_values[u] for cid, u in self._medoid_rows.items()}
        self._medoid_reduced_at_build = {
            cid: reduced_unique[u].copy() for cid, u in self._medoid_rows.items()
        }
        self._medoid_scale = self._inter_medoid_scale()
        self._drift_assigned = 0
        self.metrics.gauge(f"{self.name}.drift").set(0.0)
        # Medoids from unique-space indices to value-table rows.
        self._medoid_rows = {cid: int(order[u]) for cid, u in self._medoid_rows.items()}
        self._index_query_arrays(order, labels_unique)
        self._build_medoids()

    def _index_query_arrays(self, order: np.ndarray, labels_unique: np.ndarray) -> None:
        """The arrays :meth:`_targeted_scan` reads, rebuilt at build and
        delta time: each value-table row's cluster, and cluster -> its
        member rows (ascending in first occurrence, ``order``'s order)."""
        self._labels = np.empty(order.shape[0], dtype=np.int64)
        self._labels[order] = labels_unique
        cluster_ids, slots = np.unique(labels_unique, return_inverse=True)
        members, ptr = _group_positions(slots, len(cluster_ids))
        self._cluster_rows = order[members]
        self._cluster_bounds = {
            cid: (int(ptr[slot]), int(ptr[slot + 1]))
            for slot, cid in enumerate(cluster_ids.tolist())
        }

    def _inter_medoid_scale(self) -> float:
        """Mean pairwise distance between medoids (drift normalizer)."""
        if len(self._medoid_reduced_at_build) < 2:
            return 1.0
        medoids = np.stack(list(self._medoid_reduced_at_build.values()))
        dists = euclidean_distance(medoids, medoids)
        n = medoids.shape[0]
        mean = float(dists.sum() / (n * (n - 1)))
        return mean if mean > 0.0 else 1.0

    # -- incremental lifecycle ----------------------------------------------

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Partial maintenance: keep the clustering, place new values.

        The expensive offline work — kNN graph, UMAP, HDBSCAN — is kept;
        values that survived the delta keep their cluster and reduced
        coordinates.  New values (from added or revised relations) are
        projected via the landmark transform and assigned to their
        nearest existing medoid; retired values drop out and each
        cluster's medoid is re-derived from its surviving members.  A
        drift statistic (fraction of post-hoc assignments + normalized
        medoid displacement since the last clustering) triggers an
        automatic full re-cluster past :attr:`drift_threshold` —
        partial maintenance when cheap, principled rebuild when not.
        """
        del added, updated, removed  # state derives from the value table
        table = self.embeddings.value_table()
        order = table.by_first_occurrence()
        unique_values = [table.values[row] for row in order.tolist()]
        current = table.row_of

        # Retired values drop their assignments.
        for value in list(self._cluster_of_value):
            if value not in current:
                del self._cluster_of_value[value]
                del self._reduced_of_value[value]
        if not self._cluster_of_value:
            # Nothing survived: there is no anchor clustering left to
            # maintain, so re-cluster from scratch.
            self._rebuild()
            return

        members: dict[int, list[str]] = defaultdict(list)
        for value, cid in self._cluster_of_value.items():
            members[cid].append(value)
        for cid in list(self._medoid_value):
            if cid not in members:  # cluster emptied out
                del self._medoid_value[cid]
                self._medoid_reduced_at_build.pop(cid, None)
        # A surviving cluster whose medoid value was retired needs a
        # stand-in before new values can route to it.
        for cid, value in list(self._medoid_value.items()):
            if value not in self._reduced_of_value:
                coords = np.stack([self._reduced_of_value[v] for v in members[cid]])
                self._medoid_value[cid] = members[cid][medoid_index(coords)]

        # Place values this index has never seen: landmark-project, then
        # nearest existing medoid (reduced space, same rule noise
        # absorption uses).
        new_values = [v for v in unique_values if v not in self._cluster_of_value]
        if new_values:
            live_cids = sorted(members)
            medoid_matrix = np.stack(
                [self._reduced_of_value[self._medoid_value[cid]] for cid in live_cids]
            )
            for value in new_values:
                reduced = self.reduce_query(table.vectors[table.row_of[value]])
                nearest = int(
                    np.argmin(euclidean_distance(reduced[np.newaxis, :], medoid_matrix)[0])
                )
                cid = live_cids[nearest]
                self._cluster_of_value[value] = cid
                self._reduced_of_value[value] = reduced
                members[cid].append(value)
            self._drift_assigned += len(new_values)

        # Medoids follow their clusters; displacement from the
        # build-time position is the structural half of the drift stat.
        for cid, vals in members.items():
            coords = np.stack([self._reduced_of_value[v] for v in vals])
            self._medoid_value[cid] = vals[medoid_index(coords)]

        # Re-derive the query-path arrays over the new row numbering.
        labels_unique = np.asarray(
            [self._cluster_of_value[v] for v in unique_values], dtype=np.int64
        )
        self._index_query_arrays(order, labels_unique)
        self._medoid_rows = {
            cid: table.row_of[value] for cid, value in self._medoid_value.items()
        }
        self._build_medoids()

        drift = self.drift
        self.metrics.gauge(f"{self.name}.drift").set(drift)
        if drift > self.drift_threshold:
            self._rebuild()

    def _rebuild(self) -> None:
        """Full re-cluster over the store's current state (no re-embed)."""
        self._build()
        self.metrics.counter(f"{self.name}.rebuilds").inc()

    @property
    def drift(self) -> float:
        """Clustering staleness absorbed since the last re-cluster.

        Sum of (a) the fraction of unique values assigned to a medoid
        post-hoc rather than by HDBSCAN, and (b) the mean displacement
        of cluster medoids from their build-time positions, in units of
        the build-time inter-medoid distance.
        """
        n_unique = len(self._cluster_of_value)
        if not n_unique:
            return 0.0
        fraction = self._drift_assigned / n_unique
        displacements = [
            float(
                np.linalg.norm(
                    self._reduced_of_value[self._medoid_value[cid]] - at_build
                )
            )
            for cid, at_build in self._medoid_reduced_at_build.items()
            if cid in self._medoid_value
        ]
        displacement = (
            sum(displacements) / (len(displacements) * self._medoid_scale)
            if displacements
            else 0.0
        )
        return fraction + displacement

    def _reduce(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """PCA (optional) then UMAP, with the kNN graph precomputed:
        the UMAP input and its output."""
        working = vectors
        if self.pca_components and self.pca_components < vectors.shape[1]:
            self._pca = PCA(n_components=self.pca_components, seed=self.seed)
            working = self._pca.fit_transform(vectors)
        n = working.shape[0]
        knn = build_knn_graph(working, min(self.umap_neighbors, n - 1))
        # Queries project through the landmarks, never through UMAP, so
        # the fitted model (which holds its training points and fuzzy
        # graph) is dropped once it has reduced the values.
        umap = UMAP(
            n_components=min(self.umap_components, working.shape[1]),
            n_neighbors=self.umap_neighbors,
            n_epochs=self.umap_epochs,
            precomputed_knn=knn,
            seed=self.seed,
        )
        return working, umap.fit_transform(working)

    def reduce_query(self, query_vector: np.ndarray) -> np.ndarray:
        """Project a query vector into the clustered (UMAP) space.

        Uses a landmark transform — the weighted average of the nearest
        landmarks' reduced coordinates, the same rule as UMAP's
        out-of-sample transform restricted to a fixed landmark set — so
        the cost is independent of corpus size.  Search itself routes
        and scores in the encoder's space; this projection exists for
        inspecting and visualizing queries against the cluster map.
        """
        assert self._landmark_working is not None and self._landmark_reduced is not None
        working = np.asarray(query_vector, dtype=np.float64)[np.newaxis, :]
        if self._pca is not None:
            working = self._pca.transform(working)
        dists = euclidean_distance(working, self._landmark_working)[0]
        k = min(self.umap_neighbors, dists.shape[0])
        nearest = np.argpartition(dists, k - 1)[:k]
        nd = dists[nearest]
        scale = max(float(nd.mean()), 1e-12)
        weights = np.exp(-nd / scale)
        weights /= weights.sum()
        return weights @ self._landmark_reduced[nearest]

    def _pick_landmarks(self, working: np.ndarray, reduced: np.ndarray) -> None:
        """Medoids + random sample backing :meth:`reduce_query`."""
        n = reduced.shape[0]
        rng = np.random.default_rng(self.seed)
        rows = set(self._medoid_rows.values())
        extra = max(0, min(self.n_landmarks, n) - len(rows))
        if extra:
            rows.update(int(r) for r in rng.choice(n, size=extra, replace=False))
        rows_arr = np.asarray(sorted(rows), dtype=np.intp)
        self._landmark_working = working[rows_arr]
        self._landmark_reduced = reduced[rows_arr]

    def _cluster(self, reduced: np.ndarray) -> np.ndarray:
        # Scale granularity with corpus size: a fixed min_cluster_size
        # over a growing corpus yields ever more clusters, shrinking the
        # fraction a fixed routing budget can reach.
        scaled = max(self.min_cluster_size, reduced.shape[0] // 120)
        clusterer = HDBSCAN(
            min_cluster_size=min(scaled, max(2, reduced.shape[0] // 2)),
            min_samples=self.min_samples,
            cluster_selection_method=self.cluster_selection_method,
        )
        return clusterer.fit_predict(reduced)

    def _absorb_noise(self, reduced: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Attach noise points to their nearest cluster medoid.

        If HDBSCAN found no clusters at all (uniform data), everything
        becomes one cluster so the index stays usable.
        """
        labels = labels.copy()
        cluster_ids = sorted(set(labels.tolist()) - {-1})
        if not cluster_ids:
            labels[:] = 0
            self._n_noise = 0
            self._medoid_rows = {0: medoid_index(reduced)}
            return labels

        self._medoid_rows = {}
        for cid in cluster_ids:
            members = np.flatnonzero(labels == cid)
            self._medoid_rows[cid] = int(members[medoid_index(reduced[members])])

        noise = np.flatnonzero(labels == -1)
        self._n_noise = int(noise.size)
        if noise.size:
            medoid_matrix = reduced[[self._medoid_rows[c] for c in cluster_ids]]
            nearest = np.argmin(euclidean_distance(reduced[noise], medoid_matrix), axis=1)
            labels[noise] = np.asarray(cluster_ids, dtype=labels.dtype)[nearest]
        return labels

    def _build_medoids(self) -> None:
        """The medoid routing collection: one point per cluster, in
        cluster-id order.

        Medoids are stored in the ORIGINAL embedding space: the query
        is "transformed into a vector using the same sentence
        transformer, allowing for a direct comparison between the
        query and the cluster medoids" (Sec 4.3) — the comparison is
        in the encoder's space, and each medoid is a real data point
        whose original vector is known.
        """
        self._medoid_cids = np.asarray(sorted(self._medoid_rows), dtype=np.int64)
        rows = [self._medoid_rows[cid] for cid in self._medoid_cids.tolist()]
        self._medoids = Collection(
            "medoids",
            self.embeddings.value_table().vectors[rows].astype(np.float64),
            metric=Metric.COSINE,
            metrics=self.metrics,
        )

    # -- introspection -------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the built index."""
        return len(self._medoid_rows)

    @property
    def n_noise_points(self) -> int:
        """How many points HDBSCAN marked as noise (then absorbed)."""
        return self._n_noise

    def cluster_sizes(self) -> dict[int, int]:
        """Members per cluster, counting a value once per relation pair
        that holds it."""
        ids, slots = np.unique(self._labels, return_inverse=True)
        counts = np.bincount(slots, weights=np.diff(self.embeddings.value_table().indptr))
        return {int(i): int(c) for i, c in zip(ids, counts)}

    # -- query ---------------------------------------------------------------

    def _route(self, block: np.ndarray) -> list[np.ndarray]:
        """The ``top_clusters`` nearest medoids' cluster ids per query."""
        medoids = self._medoids
        assert medoids is not None
        block = np.ascontiguousarray(block, dtype=medoids.dtype)
        with self.metrics.timer(f"{self.name}.route"):
            found = medoids.search_rows(block, k=self.top_clusters)
        return [self._medoid_cids[rows] for rows, _ in found]

    def _score_all(self, query: str) -> list[RelationMatch]:
        with self.metrics.timer(f"{self.name}.encode"):
            q = self.embeddings.encode_query(query)
        routed = self._route(q[np.newaxis, :])[0]
        with self.metrics.timer(f"{self.name}.scan"):
            return self._targeted_scan(q, routed)

    def _score_batch(self, queries: Sequence[str]) -> list[list[RelationMatch]]:
        """Batch the medoid-routing stage, then fan out per cluster.

        Routing is a single exact search of the query block against the
        medoid collection — one GEMM for the whole batch instead of one
        matrix-vector pass per query — after which each query's
        targeted in-cluster scan proceeds exactly as in sequential
        :meth:`_score_all`.
        """
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        routed = self._route(block)
        with self.metrics.timer(f"{self.name}.scan"):
            return [self._targeted_scan(q, cids) for q, cids in zip(block, routed)]

    def _targeted_scan(self, q: np.ndarray, cluster_ids: np.ndarray) -> list[RelationMatch]:
        # Per routed cluster, keep the best ``per_cluster_candidates``
        # DISTINCT member values by cosine similarity to the query in
        # the encoder's space, then expand each kept value to every
        # relation that contains it.  Clusters are small (HDBSCAN
        # leaves), so exact scoring within a cluster is the "ANNS steps
        # inside the top-k clusters" of Algorithm 3 while remaining
        # targeted: values outside the routed clusters are never
        # touched.  Scoring in the original space (rather than at the
        # query's UMAP landmark position) matters for multi-keyword
        # queries, whose reduced image lies between clusters where
        # distances are meaningless.
        table = self.embeddings.value_table()
        keep = self.per_cluster_candidates
        kept: list[np.ndarray] = []
        for cid in cluster_ids.tolist():
            bounds = self._cluster_bounds.get(cid)
            if bounds is None:
                continue
            members = self._cluster_rows[bounds[0] : bounds[1]]
            if members.shape[0] > keep:
                member_sims = table.vectors[members].astype(np.float64) @ q
                members = members[np.argpartition(-member_sims, keep - 1)[:keep]]
            kept.append(members)
        if not kept:
            return []
        values = np.concatenate(kept)
        # Every occurrence of a kept value, in store order, scored from
        # one float64 gather: the rows, order and dtype of a scan over
        # all relations' pairs, so each similarity keeps those bits.
        occ, which = table.occurrences(values)
        by_pair = np.argsort(table.occ_flat[occ])
        occ, rows = occ[by_pair], values[which[by_pair]]
        sims = table.vectors[rows].astype(np.float64) @ q
        owners, scores, n_hits = evidence_scores(
            table.occ_relation[occ], sims, table.occ_count[occ], self.evidence_size
        )
        relation_ids = self.embeddings.relation_ids()
        clusters = cluster_ids.tolist()
        return [
            RelationMatch(
                relation_id=relation_ids[owner],
                score=score,
                details={"n_hits": hits, "clusters": list(clusters)},
            )
            for owner, score, hits in zip(owners.tolist(), scores.tolist(), n_hits.tolist())
        ]


def _group_positions(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR grouping of ``keys`` in ``[0, n_keys)``: key ``j``'s positions,
    ascending, are ``positions[ptr[j] : ptr[j + 1]]``."""
    positions = np.argsort(keys, kind="stable")
    ptr = np.searchsorted(keys[positions], np.arange(n_keys + 1))
    return positions, ptr
