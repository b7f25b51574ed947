"""Tests for semantic representations (semImg) of relations and federations."""

import numpy as np
import pytest

from repro.core.semimg import (
    build_federation_embeddings,
    build_relation_embedding,
)
from repro.datamodel import Federation, Relation
from repro.errors import ConfigurationError


class TestRelationEmbedding:
    def test_deduplication_with_counts(self, encoder64):
        rel = Relation("r", ["a", "b"], [["x", "y"], ["x", "y"], ["x", "z"]])
        emb = build_relation_embedding("d/r", rel, encoder64)
        # unique (name, value): (a,x), (b,y), (b,z) + __schema__
        assert emb.n_unique == 4
        assert emb.n_cells == 7  # 6 cells + schema pseudo-value
        pair = dict(zip(zip(emb.attr_names, emb.values), emb.counts))
        assert pair[("a", "x")] == 3
        assert pair[("b", "y")] == 2

    def test_caption_pseudo_attribute(self, encoder64):
        rel = Relation("r", ["a"], [["x"]], caption="hello world")
        emb = build_relation_embedding("d/r", rel, encoder64)
        assert "__caption__" in emb.attr_names
        assert "__schema__" in emb.attr_names

    def test_vectors_unit_norm(self, encoder64, tiny_relations):
        emb = build_relation_embedding("d/r", tiny_relations[0], encoder64)
        norms = np.linalg.norm(emb.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_empty_relation_rejected(self, encoder64):
        rel = Relation("r", [])
        with pytest.raises(ConfigurationError):
            build_relation_embedding("d/r", rel, encoder64)

    def test_float32_storage(self, encoder64, tiny_relations):
        emb = build_relation_embedding("d/r", tiny_relations[0], encoder64)
        assert emb.vectors.dtype == np.float32


class TestFederationEmbeddings:
    def test_build(self, encoder64, tiny_federation):
        embs = build_federation_embeddings(tiny_federation, encoder64)
        assert embs.n_relations == 3
        assert embs.dim == 64
        assert embs.total_vectors == sum(r.n_unique for r in embs.relations)
        assert embs.build_seconds >= 0

    def test_relation_ids_order(self, encoder64, tiny_federation):
        embs = build_federation_embeddings(tiny_federation, encoder64)
        assert embs.relation_ids() == [rid for rid, _ in tiny_federation.relations()]

    def test_encode_query_unit(self, encoder64, tiny_federation):
        embs = build_federation_embeddings(tiny_federation, encoder64)
        q = embs.encode_query("covid vaccines")
        assert np.linalg.norm(q) == pytest.approx(1.0)

    def test_value_table_alignment(self, encoder64, tiny_federation):
        embs = build_federation_embeddings(tiny_federation, encoder64)
        table = embs.value_table()
        assert embs.value_table() is table  # built once
        assert table.vectors.dtype == np.float32
        assert len(table) == len({v for rel in embs.relations for v in rel.values})
        # every (relation, pair) occurs once, under its value's row, with
        # that relation's vector and count
        assert table.indptr[-1] == embs.total_vectors
        seen = set()
        for row, value in enumerate(table.values):
            for o in range(table.indptr[row], table.indptr[row + 1]):
                rel_pos = int(table.occ_relation[o])
                rel = embs.relations[rel_pos]
                pair = int(table.occ_flat[o] - table.offsets[rel_pos])
                assert rel.values[pair] == value
                assert table.occ_count[o] == rel.counts[pair]
                np.testing.assert_array_equal(table.vectors[row], rel.vectors[pair])
                seen.add((rel_pos, pair))
        assert len(seen) == embs.total_vectors
        # rows are numbered by first occurrence
        np.testing.assert_array_equal(table.by_first_occurrence(), np.arange(len(table)))

    def test_empty_federation_rejected(self, encoder64):
        with pytest.raises(ConfigurationError):
            build_federation_embeddings(Federation("empty"), encoder64)
