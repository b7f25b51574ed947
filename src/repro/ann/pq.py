"""Product Quantization (Jégou, Douze & Schmid, 2011).

The paper compresses value embeddings with PQ before indexing them in
the vector database (Sec 4.2): each vector is split into ``m``
subvectors, each subvector is quantized to its nearest centroid in a
per-subspace codebook, and queries are scored against the compressed
codes with asymmetric distance computation (ADC) — one lookup table per
subspace, one table lookup per code byte.  The index that scores with
it is :class:`repro.vectordb.index.HNSWPQIndex`.
"""

# repro-lint: disable-file=RL003 -- PQ trains, reconstructs and scores in float64 by design; codes are uint8
from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.linalg.kmeans import KMeans

__all__ = ["ProductQuantizer"]


class ProductQuantizer:
    """Trainable product quantizer with ADC scoring.

    Parameters
    ----------
    n_subvectors:
        Number of subspaces ``m``; must divide the vector dimension.
    n_centroids:
        Codebook size per subspace (<= 256 so codes fit in uint8).
    kmeans_iters / seed:
        Codebook training controls.
    """

    def __init__(
        self,
        n_subvectors: int = 8,
        n_centroids: int = 256,
        kmeans_iters: int = 25,
        seed: int = 0,
    ) -> None:
        if n_subvectors < 1:
            raise ConfigurationError("n_subvectors must be >= 1")
        if not 2 <= n_centroids <= 256:
            raise ConfigurationError("n_centroids must be in [2, 256] (uint8 codes)")
        self.n_subvectors = n_subvectors
        self.n_centroids = n_centroids
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self.codebooks_: np.ndarray | None = None  # (m, k, sub_dim)
        self._sub_dim: int | None = None

    # -- training -------------------------------------------------------

    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        """Learn per-subspace codebooks from training vectors."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ConfigurationError("fit expects a 2-D (n, dim) array")
        n, dim = vectors.shape
        if dim % self.n_subvectors != 0:
            raise ConfigurationError(
                f"dim {dim} not divisible by n_subvectors {self.n_subvectors}"
            )
        self._sub_dim = dim // self.n_subvectors
        k = min(self.n_centroids, n)
        codebooks = np.zeros((self.n_subvectors, k, self._sub_dim))
        for m in range(self.n_subvectors):
            sub = vectors[:, m * self._sub_dim : (m + 1) * self._sub_dim]
            km = KMeans(n_clusters=k, max_iter=self.kmeans_iters, seed=self.seed + m)
            km.fit(sub)
            assert km.centroids_ is not None
            codebooks[m, : km.centroids_.shape[0]] = km.centroids_
        self.codebooks_ = codebooks
        return self

    def _require_fitted(self) -> np.ndarray:
        if self.codebooks_ is None:
            raise NotFittedError("ProductQuantizer used before fit")
        return self.codebooks_

    def _check_dim(self, dim: int) -> None:
        assert self._sub_dim is not None
        expected = self._sub_dim * self.n_subvectors
        if dim != expected:
            raise DimensionMismatchError(f"expected dim {expected}, got {dim}")

    # -- encode / decode --------------------------------------------------

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize vectors to uint8 codes of shape ``(n, m)``."""
        codebooks = self._require_fitted()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        self._check_dim(vectors.shape[1])
        assert self._sub_dim is not None
        n = vectors.shape[0]
        codes = np.zeros((n, self.n_subvectors), dtype=np.uint8)
        for m in range(self.n_subvectors):
            sub = vectors[:, m * self._sub_dim : (m + 1) * self._sub_dim]
            # (n, k) squared distances to this subspace's centroids
            d2 = (
                np.sum(sub**2, axis=1)[:, np.newaxis]
                - 2.0 * sub @ codebooks[m].T
                + np.sum(codebooks[m] ** 2, axis=1)[np.newaxis, :]
            )
            codes[:, m] = np.argmin(d2, axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        codebooks = self._require_fitted()
        codes = np.atleast_2d(np.asarray(codes))
        assert self._sub_dim is not None
        n = codes.shape[0]
        out = np.zeros((n, self._sub_dim * self.n_subvectors))
        for m in range(self.n_subvectors):
            out[:, m * self._sub_dim : (m + 1) * self._sub_dim] = codebooks[m][codes[:, m]]
        return out

    # -- ADC scoring -------------------------------------------------------

    def _query_block(self, queries: np.ndarray) -> np.ndarray:
        """Queries as a float64 ``(Q, m, sub_dim)`` subspace tensor."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        self._check_dim(queries.shape[1])
        assert self._sub_dim is not None
        return queries.reshape(queries.shape[0], self.n_subvectors, self._sub_dim)

    def adc_inner_product_tables(self, queries: np.ndarray) -> np.ndarray:
        """Inner-product lookup tables for a query block: ``(Q, m, k)``.

        One einsum builds every query's per-subspace table at once —
        the batched-ADC kernel that lets a whole query block score the
        code matrix without re-probing per query.
        """
        codebooks = self._require_fitted()
        return np.einsum("mkd,qmd->qmk", codebooks, self._query_block(queries))

    def adc_l2_tables(self, queries: np.ndarray) -> np.ndarray:
        """Squared-L2 lookup tables for a query block: ``(Q, m, k)``.

        Uses the expanded ``||q-c||² = ||q||² - 2<q,c> + ||c||²`` form
        so the cross term is one einsum; round-off can leave tiny
        negatives, which ADC consumers clip before any sqrt.
        """
        codebooks = self._require_fitted()
        q = self._query_block(queries)
        cross = np.einsum("mkd,qmd->qmk", codebooks, q)
        q_sq = np.einsum("qmd,qmd->qm", q, q)
        c_sq = np.einsum("mkd,mkd->mk", codebooks, codebooks)
        return q_sq[:, :, np.newaxis] - 2.0 * cross + c_sq[np.newaxis, :, :]

    @staticmethod
    def adc_scores(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Sum table lookups over subspaces for every code row."""
        codes = np.atleast_2d(np.asarray(codes))
        m = codes.shape[1]
        return table[np.arange(m)[np.newaxis, :], codes].sum(axis=1)
