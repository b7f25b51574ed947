"""One persistence layer for every snapshot the library writes.

``repro.storage`` is the single place bytes meet disk: an append-only,
checksummed, atomically-committed **segment snapshot** format
(:mod:`repro.storage.segment`) and a memory-mapped read path
(:mod:`repro.storage.mapped`) that makes cold starts O(1) in index
size.  Federation embeddings persist through this package, and the
RL006 lint rule bans raw ``np.save``/``np.load``/``np.memmap``
everywhere else.

Snapshots saved in a retired layout (a single-file numpy archive, a
``shard-<i>/`` root, a snapshot without ``centroids``) do not load;
``python -m repro.storage migrate SRC DST`` converts them
(:mod:`repro.storage.migrate`, which this package does not import: it
builds on :mod:`repro.core`, which imports this package).
"""

from repro.storage.mapped import MappedBuffer, live_mapped_nbytes, live_mapped_paths
from repro.storage.segment import (
    FORMAT,
    MANIFEST,
    MIGRATE_HINT,
    SegmentSnapshot,
    SegmentWriter,
    open_snapshot,
)

__all__ = [
    "FORMAT",
    "MANIFEST",
    "MIGRATE_HINT",
    "MappedBuffer",
    "SegmentSnapshot",
    "SegmentWriter",
    "live_mapped_nbytes",
    "live_mapped_paths",
    "open_snapshot",
]
