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
from repro.vectordb import Collection


def site_export(site: str, relation, encoder) -> tuple[np.ndarray, list[dict]]:
    """What runs inside each site: embed locally, export vectors only,
    with one payload per vector row."""
    embedding = build_relation_embedding(f"{site}/{relation.name}", relation, encoder)
    # NOTE: the payload carries the dataset id and column name, but
    # never the cell value itself.
    payloads = [
        {"site": site, "dataset": embedding.relation_id, "column": column}
        for column in embedding.attr_names
    ]
    return embedding.vectors, payloads


def main() -> None:
    encoder = CachingEncoder(SemanticHashEncoder(dim=256))
    blocks, payloads = [], []
    for site, relation in (
        ("who.int", who_relation()),
        ("cdc.gov", cdc_relation()),
        ("ecdc.europa.eu", ecdc_relation()),
    ):
        vectors, site_payloads = site_export(site, relation, encoder)
        blocks.append(vectors)
        payloads.extend(site_payloads)
    exported = np.concatenate(blocks, dtype=np.float64)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "federation-snapshot"
        writer = SegmentWriter(snapshot)
        writer.add_array("vectors", exported)
        writer.add_json(
            "points", [{"id": row, "payload": payload} for row, payload in enumerate(payloads)]
        )
        writer.commit()
        print(f"exported snapshot: {sorted(p.name for p in snapshot.iterdir())}\n")

        shared = open_snapshot(snapshot)
        # Row i of the vectors is point i: the payloads stay beside the
        # rows, and the collection searches the rows.
        points = shared.json("points")
        collection = Collection("federation", shared.array("vectors"), metric=Metric.COSINE)
        collection.create_index("hnsw", m=8, ef_construction=40)

        query = "covid vaccine doses"
        q = encoder.encode_one(query)
        print(f"query: {query!r}")
        rows, scores = collection.search_rows(q[np.newaxis, :], k=12)[0]
        seen = {}
        for row, score in zip(rows.tolist(), scores.tolist()):
            payload = points[row]["payload"]
            dataset = payload["dataset"]
            if dataset not in seen:
                seen[dataset] = (score, payload["site"], payload["column"])
        for dataset, (score, site, column) in sorted(seen.items(), key=lambda kv: -kv[1][0]):
            print(f"   {score:6.3f}  {dataset:20} (owner {site}, first match in {column!r})")
        print("\nNo cell value ever left its site — only embeddings did.")


if __name__ == "__main__":
    main()
