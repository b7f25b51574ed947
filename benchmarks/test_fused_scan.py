"""Micro-benchmark: the ``max_mean`` ExS scan at float32 vs float64.

Not a paper artifact.  ExS under the paper's mean aggregation scans one
float64 centroid per relation, so its only dtype-sensitive storage is
the value matrix the ``max_mean`` ablation stacks: one GEMM over every
value vector plus a segmented partition.  The GEMM is bandwidth bound
at this shape (a federation of many small relations), so halving the
element width should never lose throughput.

Run with ``pytest benchmarks/test_fused_scan.py -q -s`` for the
measured numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.engine import DiscoveryEngine
from repro.datamodel.relation import Federation, Relation
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder

from _trajectory import record

#: Many small relations: the shape that maximizes per-block overhead
#: relative to arithmetic.
N_RELATIONS = 600
DIM = 64
K = 20

WORDS = [
    "vaccine", "league", "gdp", "galaxy", "sonata", "glacier",
    "enzyme", "harbor", "tariff", "nebula", "tempo", "monsoon",
]

QUERIES = [f"{WORDS[i % len(WORDS)]} {WORDS[(i + 5) % len(WORDS)]}" for i in range(16)]


def tiny_relation(slot: int) -> Relation:
    words = [WORDS[(slot + j) % len(WORDS)] for j in range(3)]
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure"],
        [[f"{words[r % 3]} {slot}", str(100 * slot + r)] for r in range(3)],
        caption=f"{words[0]} {words[1]} table {slot}",
    )


@pytest.fixture(scope="module")
def fused_fed() -> Federation:
    return Federation.from_relations([tiny_relation(s) for s in range(N_RELATIONS)])


@pytest.fixture(scope="module")
def shared_encoder() -> CachingEncoder:
    """One cache across every engine: each variant times scan work,
    not first-touch hashing."""
    return CachingEncoder(SemanticHashEncoder(dim=DIM))


def make_engine(fused_fed, encoder, dtype) -> DiscoveryEngine:
    engine = DiscoveryEngine(
        encoder=encoder,
        dtype=dtype,
        method_params={"exs": {"aggregate": "max_mean"}},
    )
    engine.index(fused_fed)
    engine.method("exs")
    # Warm pass: encoder cache + BLAS thread pools out of the timings.
    engine.search_batch(QUERIES, method="exs", k=K)
    return engine


def best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` runs (min is noise-robust)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_float32_throughput_and_memory_vs_float64(fused_fed, shared_encoder):
    """float32 halves the stacked value matrix and must not lose
    throughput beyond noise (the GEMM is bandwidth bound at this shape)."""
    f32 = make_engine(fused_fed, shared_encoder, dtype=np.float32)
    f64 = make_engine(fused_fed, shared_encoder, dtype=np.float64)

    f32_s = best_of(lambda: f32.search_batch(QUERIES, method="exs", k=K))
    f64_s = best_of(lambda: f64.search_batch(QUERIES, method="exs", k=K))

    f32_bytes = f32.method("exs").index_bytes()
    f64_bytes = f64.method("exs").index_bytes()
    assert f64_bytes == 2 * f32_bytes

    qps32 = len(QUERIES) / max(f32_s, 1e-9)
    qps64 = len(QUERIES) / max(f64_s, 1e-9)
    record(
        "fused_scan",
        {
            "f32_qps": qps32,
            "f64_qps": qps64,
            "f32_index_mb": f32_bytes / 1e6,
            "f64_index_mb": f64_bytes / 1e6,
        },
    )
    print(
        f"\nExS max_mean dtype sweep: float32 {f32_s * 1e3:.1f} ms "
        f"({qps32:.0f} q/s, {f32_bytes / 1e6:.1f} MB), "
        f"float64 {f64_s * 1e3:.1f} ms ({qps64:.0f} q/s, {f64_bytes / 1e6:.1f} MB)"
    )
    # Loose pathology guard, not a tight perf bound: the half-width
    # scan should never run at less than half the float64 speed.
    assert f32_s <= 2.0 * f64_s
