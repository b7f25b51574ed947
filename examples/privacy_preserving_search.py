"""Privacy-preserving federation search over an exported vector snapshot.

The paper motivates embeddings for federations where "datasets are not
allowed to leave the original premises": embeddings are not inherently
reversible, so each site can publish only its value vectors.  This
example simulates that flow:

1. each site builds its own relation embeddings locally;
2. only the vectors + coarse metadata are exported into a shared
   segment snapshot (no cell values cross the boundary);
3. the search coordinator loads the snapshot and answers queries,
   returning dataset identifiers — the analyst then requests access
   from the owning site.

Run:
    python examples/privacy_preserving_search.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.semimg import build_relation_embedding
from repro.data.covid import cdc_relation, ecdc_relation, who_relation
from repro.embedding import CachingEncoder, SemanticHashEncoder
from repro.linalg.distances import Metric
from repro.storage import SegmentWriter, open_snapshot
from repro.vectordb import Collection, Point


def site_export(site: str, relation, encoder, collection: Collection) -> None:
    """What runs inside each site: embed locally, export vectors only."""
    embedding = build_relation_embedding(f"{site}/{relation.name}", relation, encoder)
    start = len(collection)
    collection.upsert(
        [
            Point(
                id=start + row,
                vector=embedding.vectors[row],
                # NOTE: the payload carries the dataset id and column
                # name, but never the cell value itself.
                payload={"site": site, "dataset": embedding.relation_id,
                         "column": embedding.attr_names[row]},
            )
            for row in range(embedding.n_unique)
        ]
    )


def main() -> None:
    encoder = CachingEncoder(SemanticHashEncoder(dim=256))
    exported = Collection("federation", dim=256, metric=Metric.COSINE)

    for site, relation in (
        ("who.int", who_relation()),
        ("cdc.gov", cdc_relation()),
        ("ecdc.europa.eu", ecdc_relation()),
    ):
        site_export(site, relation, encoder, exported)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "federation-snapshot"
        writer = SegmentWriter(snapshot)
        writer.add_array("vectors", exported.vectors)
        rows = np.arange(len(exported))
        writer.add_json(
            "points",
            [{"id": int(row), "payload": payload}
             for row, payload in zip(rows, exported.payloads_at(rows))],
        )
        writer.commit()
        print(f"exported snapshot: {sorted(p.name for p in snapshot.iterdir())}\n")

        shared = open_snapshot(snapshot)
        vectors = shared.array("vectors")
        collection = Collection("federation", dim=256, metric=Metric.COSINE)
        collection.upsert(
            [
                Point(id=rec["id"], vector=vectors[row], payload=rec["payload"])
                for row, rec in enumerate(shared.json("points"))
            ]
        )
        collection.create_index("hnsw", m=8, ef_construction=40)

        query = "covid vaccine doses"
        q = encoder.encode_one(query)
        print(f"query: {query!r}")
        rows, scores = collection.search_rows(q[np.newaxis, :], k=12)[0]
        seen = {}
        for payload, score in zip(collection.payloads_at(rows), scores.tolist()):
            dataset = payload["dataset"]
            if dataset not in seen:
                seen[dataset] = (score, payload["site"], payload["column"])
        for dataset, (score, site, column) in sorted(seen.items(), key=lambda kv: -kv[1][0]):
            print(f"   {score:6.3f}  {dataset:20} (owner {site}, first match in {column!r})")
        print("\nNo cell value ever left its site — only embeddings did.")


if __name__ == "__main__":
    main()
