"""Numeric kernels shared across the library: distances, top-k,
k-means and the ExS scan kernels."""

from repro.linalg.distances import (
    Metric,
    cosine_similarity,
    dot_similarity,
    euclidean_distance,
    normalize_rows,
    pairwise_distance,
    pairwise_similarity,
    row_norms,
    similarity,
)
from repro.linalg.kmeans import KMeans
from repro.linalg.segment import gemm_candidates, rowwise_scores, segment_scores
from repro.linalg.topk import top_k_indices, top_k_indices_rowwise, top_k_mask

__all__ = [
    "KMeans",
    "Metric",
    "cosine_similarity",
    "dot_similarity",
    "euclidean_distance",
    "gemm_candidates",
    "normalize_rows",
    "pairwise_distance",
    "pairwise_similarity",
    "row_norms",
    "rowwise_scores",
    "segment_scores",
    "similarity",
    "top_k_indices",
    "top_k_indices_rowwise",
    "top_k_mask",
]
