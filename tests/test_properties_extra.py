"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import ProductQuantizer
from repro.clustering import SingleLinkageTree, condense_tree, mutual_reachability_mst
from repro.data.synthesis import CorpusSynthesizer
from repro.embedding import SemanticHashEncoder


class TestEncoderProperties:
    @given(st.text(alphabet="abcdefghij 123", min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_is_one_or_zero(self, text):
        enc = SemanticHashEncoder(dim=64)
        v = enc.encode_one(text)
        norm = float(np.linalg.norm(v))
        if norm > 0:
            assert float(v @ v) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.text(alphabet="abcdefghij ", min_size=1, max_size=20),
        st.text(alphabet="abcdefghij ", min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_cosine_symmetric_and_bounded(self, a, b):
        enc = SemanticHashEncoder(dim=64)
        va, vb = enc.encode([a, b])
        cos_ab = float(va @ vb)
        cos_ba = float(vb @ va)
        assert cos_ab == pytest.approx(cos_ba)
        assert -1.0 - 1e-9 <= cos_ab <= 1.0 + 1e-9

    @given(st.text(alphabet="abcdef ", min_size=1, max_size=25))
    @settings(max_examples=20, deadline=None)
    def test_token_order_invariance_of_mean_pooling(self, text):
        # mean pooling makes bag-of-tokens encoders order-insensitive
        # for permutations that keep the same token multiset
        enc = SemanticHashEncoder(dim=64)
        tokens = text.split()
        if len(tokens) < 2:
            return
        reversed_text = " ".join(reversed(tokens))
        v1, v2 = enc.encode([" ".join(tokens), reversed_text])
        # phrase detection may differ across orders; allow tiny drift
        assert float(v1 @ v2) > 0.95


class TestPQProperties:
    @given(st.integers(2, 6), st.integers(20, 60))
    @settings(max_examples=10, deadline=None)
    def test_quantization_is_idempotent(self, m, n):
        rng = np.random.default_rng(n * m)
        dim = 8 * m
        points = rng.standard_normal((n, dim))
        pq = ProductQuantizer(n_subvectors=m, n_centroids=min(16, n)).fit(points)
        codes = pq.encode(points)
        recoded = pq.encode(pq.decode(codes))
        np.testing.assert_array_equal(codes, recoded)


class TestCondensedTreeProperties:
    @given(st.integers(12, 40), st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_point_records_partition_the_data(self, n, min_cluster_size):
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 3))
        edges, weights = mutual_reachability_mst(points, min_samples=3)
        slt = SingleLinkageTree.from_mst(edges, weights)
        tree = condense_tree(slt, min_cluster_size=min_cluster_size)
        point_children = sorted(int(c) for c in tree.child if c < n)
        assert point_children == list(range(n))
        assert int(tree.child_size[tree.child < n].sum()) == n


class TestGeneratorProperties:
    @given(st.integers(0, 5))
    @settings(max_examples=4, deadline=None)
    def test_corpus_invariants_across_seeds(self, seed):
        corpus = CorpusSynthesizer(
            "prop", n_tables=40, pairs_target=300, seed=seed
        ).build()
        assert corpus.qrels.n_pairs == 300
        assert len(corpus.queries) == 60
        # every judged pair's grade matches the latent rule
        for query, relation_id, grade in corpus.qrels.pairs()[:100]:
            spec = next(s for s in corpus.queries if s.text == query)
            topic, region, year = corpus.table_facets[relation_id]
            assert grade == CorpusSynthesizer.grade(spec, topic, region, year)
        # query texts are unique (qrels are keyed by text)
        texts = [q.text for q in corpus.queries]
        assert len(texts) == len(set(texts))
