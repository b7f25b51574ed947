"""Micro-benchmark: time-to-first-query from a persisted index.

Not a paper artifact — this measures what the segment storage layer
buys on warm restarts: the time from "process starts with a snapshot
on disk" to "first query answered".  Three variants over the same 600
relations:

* **npz-eager** — the legacy single-file compressed archive: inflate
  every byte, rebuild the store, stack the scan matrix.
* **segment-eager** — the segment snapshot read eagerly: raw bytes,
  digest-verified, but still fully materialized.
* **segment-mmap** — ``load_index(..., mmap=True)``: map the vector
  segment read-only and let the first scan fault pages in lazily; the
  scan matrix is *adopted* zero-copy, never re-stacked.

The guard asserts the mmap path's time-to-first-query is >= 5x faster
than npz-eager at this size.  Run with
``pytest benchmarks/test_cold_start.py -q -s`` for the measured
numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.engine import DiscoveryEngine
from repro.core.semimg import save_federation_embeddings_npz
from repro.datamodel.relation import Federation, Relation
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder

N_RELATIONS = 600
DIM = 64

WORDS = [
    "vaccine", "league", "gdp", "galaxy", "sonata", "glacier",
    "enzyme", "harbor", "tariff", "nebula", "tempo", "monsoon",
]


def tiny_relation(slot: int) -> Relation:
    words = [WORDS[(slot + j) % len(WORDS)] for j in range(3)]
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure"],
        [[f"{words[r % 3]} {slot}", str(100 * slot + r)] for r in range(3)],
        caption=f"{words[0]} {words[1]} table {slot}",
    )


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """One indexed federation persisted both ways, plus its encoder.

    The encoder cache is shared with every reloading engine so the
    timings measure *load* work, not first-touch query hashing."""
    root = tmp_path_factory.mktemp("cold_start")
    encoder = CachingEncoder(SemanticHashEncoder(dim=DIM))
    fed = Federation.from_relations([tiny_relation(s) for s in range(N_RELATIONS)])
    engine = DiscoveryEngine(encoder=encoder, executor="inline")
    engine.index(fed)
    engine.save_index(root / "segments")
    save_federation_embeddings_npz(engine.embeddings, root / "legacy.npz")
    engine.close()
    return root, encoder


def time_to_first_query(path, encoder, mmap: bool) -> float:
    """Seconds from "snapshot on disk" to "first ExS answer in hand"."""
    start = time.perf_counter()
    engine = DiscoveryEngine(encoder=encoder, executor="inline")
    engine.load_index(path, mmap=mmap)
    engine.search("vaccine league", method="exs", k=10)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed


def best_of(fn, repeats: int = 3) -> float:
    return min(fn() for _ in range(repeats))


def test_cold_start_trajectory(snapshots):
    root, encoder = snapshots
    npz_eager = best_of(lambda: time_to_first_query(root / "legacy.npz", encoder, False))
    seg_eager = best_of(lambda: time_to_first_query(root / "segments", encoder, False))
    seg_mmap = best_of(lambda: time_to_first_query(root / "segments", encoder, True))

    print(
        f"\ncold start, {N_RELATIONS} relations x dim {DIM} (time to first query):"
        f"\n  npz-eager      {npz_eager * 1e3:8.2f} ms"
        f"\n  segment-eager  {seg_eager * 1e3:8.2f} ms"
        f"\n  segment-mmap   {seg_mmap * 1e3:8.2f} ms"
        f"\n  mmap speedup over npz: {npz_eager / seg_mmap:.1f}x"
    )
    # The guard the ISSUE sets: mapping raw committed bytes must beat
    # inflating a compressed archive and re-stacking by a wide margin.
    assert seg_mmap * 5 <= npz_eager, (
        f"segment-mmap ({seg_mmap * 1e3:.1f} ms) is not >= 5x faster than "
        f"npz-eager ({npz_eager * 1e3:.1f} ms)"
    )


def test_mapped_load_is_lazy(snapshots):
    """The mmap load itself (before any query) touches no vector data.

    At this deliberately small size (~1 MB of vectors) the mmap setup
    cost and the eager read are both a few milliseconds, so the guard
    is a loose same-order bound — the data-size-proportional win is
    what :func:`test_cold_start_trajectory` measures against npz."""
    root, encoder = snapshots

    def load_only(mmap: bool) -> float:
        start = time.perf_counter()
        engine = DiscoveryEngine(encoder=encoder, executor="inline")
        engine.load_index(root / "segments", mmap=mmap)
        elapsed = time.perf_counter() - start
        engine.close()
        return elapsed

    eager = best_of(lambda: load_only(False))
    mapped = best_of(lambda: load_only(True))
    print(
        f"\nload only: eager {eager * 1e3:.2f} ms, mapped {mapped * 1e3:.2f} ms"
    )
    assert mapped <= eager * 3 + 0.05, (
        "mapped load should not materialize data: expected the same order "
        f"as eager ({eager * 1e3:.1f} ms), got {mapped * 1e3:.1f} ms"
    )
