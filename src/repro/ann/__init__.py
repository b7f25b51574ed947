"""Approximate nearest-neighbour substrate: brute force, HNSW, PQ.

These are from-scratch implementations of the components the paper uses
through Qdrant/FAISS: the HNSW proximity-graph index (Malkov & Yashunin,
2018) and Product Quantization (Jégou, Douze & Schmid, 2011), plus the
brute-force reference every index is tested against.  Each index
answers a query block with :meth:`VectorIndex.search_rows`.
"""

from repro.ann.base import VectorIndex
from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HNSWIndex
from repro.ann.pq import ProductQuantizer

__all__ = [
    "BruteForceIndex",
    "HNSWIndex",
    "ProductQuantizer",
    "VectorIndex",
]
