"""In-process vector search standing in for Qdrant.

The paper stores value embeddings in Qdrant collections with metadata
payloads ("relation ID, attribute name, etc."), compressed with Product
Quantization and indexed with HNSW.  ANNS (Algorithm 2) and CTS's
medoid routing (Algorithm 3) need one thing from it: a k-NN search
over stored vectors.  A :class:`Collection` answers that search over a
matrix it is given, exactly or through an ``hnsw`` / ``hnsw+pq`` index
whose candidates it re-scores exactly; the metadata lives in the
store's value table (:class:`repro.core.semimg.ValueTable`).
"""

from repro.vectordb.collection import Collection
from repro.vectordb.index import HNSWPQIndex, IndexKind

__all__ = [
    "Collection",
    "HNSWPQIndex",
    "IndexKind",
]
