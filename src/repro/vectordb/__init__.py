"""In-process vector collection standing in for Qdrant.

The paper stores value embeddings in Qdrant collections with metadata
payloads ("relation ID, attribute name, etc."), compressed with Product
Quantization and indexed with HNSW.  ANNS (Algorithm 2) and CTS's
medoid routing (Algorithm 3) need one thing from it: a k-NN search
over stored vectors.  A :class:`Collection` holds points (id + vector
+ payload) and answers that search exactly or through an ``hnsw`` /
``hnsw+pq`` index, re-scoring the index's candidates exactly.
"""

from repro.vectordb.collection import Collection, Point
from repro.vectordb.index import HNSWPQIndex, IndexKind

__all__ = [
    "Collection",
    "HNSWPQIndex",
    "IndexKind",
    "Point",
]
