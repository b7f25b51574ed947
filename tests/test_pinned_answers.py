"""ANNS and CTS answers pinned bit for bit on a seeded WikiTables corpus.

ANNS and CTS are deterministic across hash seeds, so their top-10
``(relation_id, repr(score))`` answers on a fixed corpus can be pinned
exactly: any change to the query path that moves a score by one ulp, or
reorders a tie, fails here.  The corpus is the smoke-size WikiTables
shape (16 tables, 8 queries, seed 0); answers are taken before and after
one ``update_relations``.

The pinned file holds what this module computes.  A change that moves an
answer on purpose (a new beam width, budget or evidence rule) re-records
it with ``python tests/test_pinned_answers.py --record`` and says so.
BLAS kernels pick their summation order per CPU family, so another
machine may move a last bit; such a platform gets its own recording, not
a tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core import DiscoveryEngine
from repro.data.wikitables import generate_wikitables_corpus
from repro.datamodel import Dataset, Federation, Relation
from repro.embedding import SemanticHashEncoder

PINNED = Path(__file__).parent / "data" / "pinned_answers.json"
METHODS = ("anns", "cts")


def _revised(relation: Relation) -> Relation:
    """The same relation with one cell of every row rewritten."""
    rows = [list(row.values) for row in relation.rows]
    for r, row in enumerate(rows):
        row[0] = f"{row[0]} revised {r}"
    return Relation(relation.name, relation.schema, rows, caption=relation.caption)


def compute_answers() -> dict[str, dict[str, list[list[list[str]]]]]:
    """Top-10 ANNS and CTS answers per query, before and after one
    ``update_relations``."""
    # The generator needs 17 tables to cover every topic; keep 16 of 20.
    corpus = generate_wikitables_corpus(n_tables=20, n_queries=8, seed=0)
    federation = Federation(corpus.name, [Dataset(corpus.name, corpus.relations[:16])])
    engine = DiscoveryEngine(encoder=SemanticHashEncoder(dim=128), executor="inline")
    queries = corpus.query_texts()

    def answers() -> dict[str, list[list[list[str]]]]:
        return {
            method: [
                [[m.relation_id, repr(m.score)] for m in engine.search(q, method=method, k=10)]
                for q in queries
            ]
            for method in METHODS
        }

    try:
        engine.index(federation)
        before = answers()
        relation_id, relation = next(iter(federation.relations()))
        engine.update_relations({relation_id: _revised(relation)})
        return {"before": before, "after": answers()}
    finally:
        engine.close()


def test_anns_and_cts_answers_are_pinned():
    pinned = json.loads(PINNED.read_text())
    got = compute_answers()
    for phase in ("before", "after"):
        for method in METHODS:
            assert got[phase][method] == pinned[phase][method], (phase, method)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pinned_answers.py --record")
    PINNED.write_text(json.dumps(compute_answers(), indent=1) + "\n")
