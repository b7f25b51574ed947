"""Micro-benchmark: time-to-first-query from a persisted index.

Not a paper artifact — this measures what the segment storage layer
buys on warm restarts: the time from "process starts with a snapshot
on disk" to "first query answered".  Two variants over the same 600
relations:

* **segment-eager** — the segment snapshot read eagerly: raw bytes,
  digest-verified, but still fully materialized.
* **segment-mmap** — ``load_index(..., mmap=True)``: map the vector
  segment read-only and let the first scan fault pages in lazily; the
  scan matrix is *adopted* zero-copy, never re-stacked.

The trajectory test prints both; the end-to-end comparison lives in
the perf ledger's ``ttfq_eager_ms`` / ``ttfq_mmap_ms`` rows on the
``lifecycle_rw`` workload (``python3 bench/compare.py``).  The one guard
here is that a mapped load does not materialize data.  Run with
``pytest benchmarks/test_cold_start.py -q -s`` for the measured
numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.engine import DiscoveryEngine
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
    """One indexed federation persisted as a snapshot, plus its encoder.

    The encoder cache is shared with every reloading engine so the
    timings measure *load* work, not first-touch query hashing."""
    root = tmp_path_factory.mktemp("cold_start")
    encoder = CachingEncoder(SemanticHashEncoder(dim=DIM))
    fed = Federation.from_relations([tiny_relation(s) for s in range(N_RELATIONS)])
    engine = DiscoveryEngine(encoder=encoder, executor="inline")
    engine.index(fed)
    engine.save_index(root / "segments")
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
    seg_eager = best_of(lambda: time_to_first_query(root / "segments", encoder, False))
    seg_mmap = best_of(lambda: time_to_first_query(root / "segments", encoder, True))

    print(
        f"\ncold start, {N_RELATIONS} relations x dim {DIM} (time to first query):"
        f"\n  segment-eager  {seg_eager * 1e3:8.2f} ms"
        f"\n  segment-mmap   {seg_mmap * 1e3:8.2f} ms"
        f"\n  mmap speedup over eager: {seg_eager / seg_mmap:.2f}x"
    )


def test_mapped_load_is_lazy(snapshots):
    """The mmap load itself (before any query) touches no vector data.

    At this deliberately small size (~1 MB of vectors) the mmap setup
    cost and the eager read are both a few milliseconds, so the guard
    is a loose same-order bound; the perf ledger's ``ttfq_*`` rows on
    ``lifecycle_rw`` compare the two loads end to end."""
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
