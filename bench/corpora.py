"""Seeded inputs: federations, queries, revisions and arrival schedules.

Everything the program under test sees comes from here, and everything
here is a function of ``--seed`` alone.  The seed picks the vocabulary
rotation, the cell numbers, the query mix, the Zipf ranks and the
arrival gaps; it never changes a federation's *shape* (relation count,
rows per relation), so ``index_mb`` and the amount of work per call
stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.data.wikitables import generate_wikitables_corpus
from repro.datamodel import Dataset, Federation, Relation

WORDS = [
    "vaccine", "league", "gdp", "galaxy", "sonata", "glacier", "enzyme",
    "harbor", "tariff", "nebula", "tempo", "monsoon", "census", "reactor",
    "orchard", "viaduct", "isotope", "ballad", "estuary", "ledger",
]


@dataclass
class Inputs:
    """One workload's generated inputs."""

    federation: Federation
    relations: dict[str, Relation]  # qualified id -> relation
    queries: list[str]
    qrels: object | None = None  # repro.eval Qrels when the corpus is graded


def synthetic_relation(rng: random.Random, slot: int, rows: int) -> Relation:
    """A two-column relation of ``rows`` rows (the fused-scan bench shape)."""
    words = rng.sample(WORDS, 3)
    base = rng.randrange(1000)
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure"],
        [[f"{words[r % 3]} {slot} {r}", str(base + 100 * slot + r)] for r in range(rows)],
        caption=f"{words[0]} {words[1]} table {slot}",
    )


def synthetic_inputs(seed: int, n_relations: int, rows: int, n_queries: int = 16) -> Inputs:
    """``n_relations`` relations of ``rows`` rows each, plus two-word queries."""
    rng = random.Random(seed)
    relations = [synthetic_relation(rng, slot, rows) for slot in range(n_relations)]
    queries = [" ".join(rng.sample(WORDS, 2)) for _ in range(n_queries)]
    federation = Federation.from_relations(relations)
    return Inputs(federation, dict(federation.relations()), queries)


#: Mean rows of a generated WikiTables-shaped table (4 to 9, uniform).
WIKITABLES_MEAN_ROWS = 6.5


def wikitables_inputs(seed: int, n_tables: int, n_queries: int) -> Inputs:
    """The repo's WikiTables-shaped corpus: paper-shaped relations,
    QS-1/QS-2 queries and graded qrels.

    The generator draws each table's row count from the seed, which would
    move the federation's size by a few percent between seeds.  So a
    quarter more tables are generated than asked for, and tables are kept
    in generation order while they fit a fixed total row count.
    """
    corpus = generate_wikitables_corpus(
        n_tables=n_tables + n_tables // 4, n_queries=n_queries, seed=seed
    )
    room = round(WIKITABLES_MEAN_ROWS * n_tables)
    smallest = min(rel.num_rows for rel in corpus.relations)
    kept = []
    for rel in corpus.relations:
        left = room - rel.num_rows
        if left == 0 or left >= smallest:
            kept.append(rel)
            room = left
    federation = Federation(corpus.name, [Dataset(corpus.name, kept)])
    relations = dict(federation.relations())
    return Inputs(federation, relations, corpus.query_texts(), corpus.qrels.restrict_to(set(relations)))


def revise(relation: Relation, version: int) -> Relation:
    """The same relation with one cell of every row rewritten."""
    rows = [list(row.values) for row in relation.rows]
    for r, row in enumerate(rows):
        row[0] = f"{row[0]} rev{version}.{r}"
    return Relation(relation.name, relation.schema, rows, caption=relation.caption)


def paraphrase(query: str) -> str:
    """The doubled-text paraphrase: same direction in embedding space,
    different string, so only the near-duplicate probe can serve it."""
    return f"{query} {query}"


def distinct_queries(queries: list[str], encode_one, threshold: float) -> list[str]:
    """``queries`` minus every one within ``threshold`` cosine of an
    earlier kept one, so distinct texts never near-duplicate each other."""
    kept: list[str] = []
    vectors: list[np.ndarray] = []
    for query in queries:
        vector = np.asarray(encode_one(query), dtype=np.float64)
        vector = vector / (np.linalg.norm(vector) or 1.0)
        if not vectors or float(np.max(np.stack(vectors) @ vector)) < threshold:
            kept.append(query)
            vectors.append(vector)
    return kept


def zipf_picks(rng: random.Random, n_items: int, n_picks: int, s: float = 1.1) -> list[int]:
    """``n_picks`` item indexes, item ``i`` drawn with weight ``(i+1)^-s``."""
    weights = [(rank + 1) ** -s for rank in range(n_items)]
    return rng.choices(range(n_items), weights=weights, k=n_picks)


def poisson_due_times(rng: random.Random, rate_per_s: float, n: int) -> list[float]:
    """Due times (seconds from start) of ``n`` arrivals with exponential
    gaps, stretched so they span exactly ``n / rate_per_s`` seconds: the
    gaps are random, the offered rate of a repeat is not."""
    now, due = 0.0, []
    for _ in range(n):
        now += rng.expovariate(rate_per_s)
        due.append(now)
    stretch = (n / rate_per_s) / now
    return [t * stretch for t in due]
