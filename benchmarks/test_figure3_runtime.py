"""Regenerates Figure 3 of the paper: runtime comparison of all methods.

Paper reference (long queries, 100% dataset): ExS 1650 ms is slowest;
baselines span 800-1400 ms (TCS 1400 > TML 1200 > AdH 1000 > WS 900 >
MDR 800); ANNS (~100 ms) and CTS (~75 ms) are an order of magnitude
faster.  The reproduced claims: CTS and ANNS form the fast group, CTS
faster than ANNS, and ExS is the slowest of the value-level methods,
with the per-query-model baselines (TML/AdH/MDR) costly at query time.
See EXPERIMENTS.md for the deviations (WS's simple features are cheap
in our substrate).

The ExS row times Algorithm 1's per-attribute loop
(``benchmarks/_algorithm1.py``), the paper's cost model; the library's
ExS returns the same ranking from one centroid dot product per
relation, at a cost that no longer grows with the number of values.
"""

import pytest

from repro.data.corpus import DatasetScale
from repro.data.queries import QueryCategory
from repro.eval.timing import time_queries

from _algorithm1 import Algorithm1Search

METHOD_ORDER = ("cts", "anns", "exs", "mdr", "ws", "tcs", "adh", "tml")
SCALES = (DatasetScale.SMALL, DatasetScale.MODERATE, DatasetScale.LARGE)


def test_figure3_runtime_series(benchmark, bench_corpus, searchers_by_scale):
    def measure():
        series = {name: [] for name in METHOD_ORDER}
        for scale in SCALES:
            queries = bench_corpus.query_texts(QueryCategory.LONG)[:4]
            for name in METHOD_ORDER:
                searcher = searchers_by_scale[scale][name]
                if name == "exs":
                    searcher = Algorithm1Search(searcher.embeddings)
                report = time_queries(searcher, queries, k=20, warmup=1)
                series[name].append(report.mean_ms)
        return series

    series = benchmark.pedantic(measure, rounds=1, iterations=1)

    title = "Figure 3: runtime (ms/query, long queries) across dataset sizes"
    lines = [title, "=" * len(title), f"{'Method':6} {'SD':>9} {'MD':>9} {'LD':>9}"]
    for name in METHOD_ORDER:
        values = " ".join(f"{v:9.2f}" for v in series[name])
        lines.append(f"{name.upper():6} {values}")
    print("\n" + "\n".join(lines))

    ld = {name: series[name][-1] for name in METHOD_ORDER}
    # CTS is the fastest method overall on the large partition...
    assert ld["cts"] == min(ld[name] for name in METHOD_ORDER if name != "ws")
    # ...and clearly beats ExS and every per-query-model baseline
    # (WS's hand-crafted features and TCS's forest are cheap in this
    # substrate — the two documented deviations, see EXPERIMENTS.md)
    assert ld["cts"] < min(ld["exs"], ld["mdr"], ld["adh"], ld["tml"])
    # ANNS beats the per-query-model baselines; ExS grows linearly with
    # the corpus, ANNS sub-linearly
    assert ld["anns"] < min(ld["mdr"], ld["adh"], ld["tml"])
    exs_growth = series["exs"][-1] / max(series["exs"][0], 1e-9)
    anns_growth = series["anns"][-1] / max(series["anns"][0], 1e-9)
    assert exs_growth > anns_growth, "ExS must scale worse than ANNS"


def test_algorithm1_loop_scores_like_exs(bench_corpus, searchers_by_scale):
    """The timed loop is the algorithm ExS serves: every relation's
    score agrees with the centroid scan (the loop sums float32 dot
    products, hence the tolerance)."""
    exs = searchers_by_scale[DatasetScale.LARGE]["exs"]
    loop = Algorithm1Search(exs.embeddings)
    n = exs.embeddings.n_relations
    for query in bench_corpus.query_texts(QueryCategory.LONG)[:2]:
        truth = loop.scores(query)
        served = exs.search(query, k=n, h=-1.0)
        assert len(served.matches) == n
        for match in served.matches:
            assert match.score == pytest.approx(truth[match.relation_id], abs=1e-5)
