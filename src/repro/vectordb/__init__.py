"""In-process vector database standing in for Qdrant.

The paper stores value embeddings in Qdrant collections with metadata
payloads ("relation ID, attribute name, etc."), compressed with Product
Quantization and indexed with HNSW.  This package provides the same
surface: named collections of points (id + vector + payload), payload
filters, cosine/dot/euclidean metrics, exact search plus pluggable ANN
indexes — all in-process.
"""

from repro.vectordb.collection import Collection, Point, ScoredPoint
from repro.vectordb.database import VectorDatabase
from repro.vectordb.filters import FieldCondition, Filter, MatchAny, MatchValue, Range
from repro.vectordb.index import HNSWPQIndex, IndexKind

__all__ = [
    "Collection",
    "FieldCondition",
    "Filter",
    "HNSWPQIndex",
    "IndexKind",
    "MatchAny",
    "MatchValue",
    "Point",
    "Range",
    "ScoredPoint",
    "VectorDatabase",
]
