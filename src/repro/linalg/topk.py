"""Top-k selection helpers, exact under ties (see :func:`top_k_mask`)."""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_indices", "top_k_indices_rowwise", "top_k_mask"]


def top_k_mask(scores: np.ndarray, k: int, largest: bool = True) -> np.ndarray:
    """Tie-inclusive top-k selection along the last axis.

    A boolean mask of ``scores``' shape marking, per row, every entry
    at least as good as the k-th best: exactly ``min(k, n)`` entries,
    more only when a tie straddles the k-th place — where a bare
    ``argpartition`` would keep an arbitrary member.  Callers order
    those few candidates by their own total order and cut at ``k``.
    NaN ranks last, as in ``np.sort``.
    """
    # repro-lint: disable=RL003 -- dtype-preserving selection; comparisons work in the caller's dtype
    scores = np.asarray(scores)
    n = scores.shape[-1]
    if k <= 0 or n == 0:
        return np.zeros(scores.shape, dtype=bool)
    if k >= n:
        return np.ones(scores.shape, dtype=bool)
    keys = -scores if largest else scores
    kth = np.partition(keys, k - 1, axis=-1)[..., k - 1 : k]
    # A NaN k-th key means the row has fewer than k comparable entries:
    # all of them are candidates, and so are the NaNs filling the rest.
    return (keys <= kth) | np.isnan(kth)


def _best_first(keys: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """The k smallest ``keys`` among ``mask``'s candidates, ties by index."""
    candidate = np.flatnonzero(mask)
    # Candidates are in index order, so a stable sort breaks ties by index.
    return candidate[np.argsort(keys[candidate], kind="stable")[:k]]


def top_k_indices(scores: np.ndarray, k: int, largest: bool = True) -> np.ndarray:
    """Indices of the k best entries of a 1-D score array, best first.

    O(n + c log c) over the ``c >= k`` tie-inclusive candidates instead
    of a full sort.  ``k`` larger than the array is clamped.  Ties are
    broken by index order (stable), which keeps rankings deterministic:
    the result equals ``sorted(range(n), key=lambda i: (-scores[i], i))[:k]``.
    """
    # repro-lint: disable=RL003 -- dtype-preserving selection; comparisons work in the caller's dtype
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError(f"expected 1-D scores, got ndim={scores.ndim}")
    keys = -scores if largest else scores
    return _best_first(keys, top_k_mask(keys, k, largest=False), k)


def top_k_indices_rowwise(scores: np.ndarray, k: int, largest: bool = True) -> np.ndarray:
    """Per-row top-k of a 2-D ``(Q, n)`` score matrix, best first.

    One ``partition`` along ``axis=1`` selects every row's candidate
    set at once, and one ``lexsort`` on ``(row, key, index)`` orders all
    rows' candidates together.  Returns a ``(Q, min(k, n))`` index
    matrix whose row ``i`` equals ``top_k_indices(scores[i], k,
    largest)`` — same selection, same stable index-order tie-breaking.
    """
    # repro-lint: disable=RL003 -- dtype-preserving selection; comparisons work in the caller's dtype
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"expected 2-D scores, got ndim={scores.ndim}")
    n_queries, n = scores.shape
    if k <= 0 or n == 0 or n_queries == 0:
        return np.empty((n_queries, 0), dtype=np.intp)
    keys = -scores if largest else scores
    candidates = np.flatnonzero(top_k_mask(keys, k, largest=False))
    rows, index = np.divmod(candidates, n)
    order = np.lexsort((index, np.take(keys, candidates), rows))
    # Every row holds >= min(k, n) candidates and keeps its place in
    # ``rows``' sorted order; keep each row's first k.
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    return index[order][rank < k].reshape(n_queries, min(k, n))
