"""Ablation: what Product Quantization buys and costs in ANNS.

DESIGN.md design choice: ANNS compresses value vectors with PQ before
HNSW indexing (the paper's configuration).  This bench compares the
exact scan, plain HNSW, and HNSW+PQ on quality, latency and memory.
"""

from repro.core.anns import ANNSearch
from repro.data.corpus import DatasetScale
from repro.data.queries import QueryCategory
from repro.eval.runner import evaluate_method
from repro.eval.timing import time_queries

from conftest import BENCH_K, qrels_cell

CONFIGS = (
    ("exact", {"index_kind": "exact"}),
    ("hnsw", {"index_kind": "hnsw"}),
    ("hnsw+pq", {"index_kind": "hnsw+pq"}),
)


def test_ablation_index_kind(benchmark, bench_corpus, bench_splits, searchers_by_scale):
    embeddings = searchers_by_scale[DatasetScale.LARGE]["exs"].embeddings
    qrels = qrels_cell(
        bench_corpus, bench_splits, QueryCategory.SHORT, DatasetScale.LARGE
    )
    queries = bench_corpus.query_texts(QueryCategory.SHORT)[:5]

    def measure():
        rows = []
        for label, params in CONFIGS:
            anns = ANNSearch(**params)
            anns.index(embeddings)
            quality = evaluate_method(anns, qrels, k=BENCH_K).map
            latency = time_queries(anns, queries, k=20, warmup=1).mean_ms
            if label == "hnsw+pq":
                compression = 128 * 4 / 8  # float32 dims vs uint8 codes
            else:
                compression = 1.0
            rows.append((label, quality, latency, compression))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nAblation: ANNS index kind (SQ, LD)")
    print(f"{'index':8} {'MAP':>6} {'ms/query':>9} {'vector compression':>19}")
    for label, quality, latency, compression in rows:
        print(f"{label:8} {quality:6.3f} {latency:9.2f} {compression:18.0f}x")

    by_label = {r[0]: r for r in rows}
    # PQ compression must not destroy quality (refine stage recovers it)
    assert by_label["hnsw+pq"][1] >= by_label["exact"][1] - 0.15
