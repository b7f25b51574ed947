"""One persistence layer for every snapshot the library writes.

``repro.storage`` is the single place bytes meet disk: an append-only,
checksummed, atomically-committed **segment snapshot** format
(:mod:`repro.storage.segment`), a memory-mapped read path
(:mod:`repro.storage.mapped`) that makes cold starts O(1) in index
size, and the quarantined legacy ``.npz`` adapter
(:mod:`repro.storage.npz`).  Federation embeddings and the vector
database both persist through this package — the RL006 lint rule bans raw ``np.save``/``np.load``/
``np.memmap`` everywhere else.
"""

from repro.storage.mapped import MappedBuffer, live_mapped_nbytes, live_mapped_paths
from repro.storage.segment import (
    FORMAT,
    MANIFEST,
    SegmentSnapshot,
    SegmentWriter,
    is_snapshot,
    open_snapshot,
)

__all__ = [
    "FORMAT",
    "MANIFEST",
    "MappedBuffer",
    "SegmentSnapshot",
    "SegmentWriter",
    "is_snapshot",
    "live_mapped_nbytes",
    "live_mapped_paths",
    "open_snapshot",
]
