"""Tests for ExS, ANNS, CTS and the DiscoveryEngine on the Figure 1 federation.

These are the paper's own acceptance criteria: for the query "COVID",
keyword search would return only ECDC, but all three semantic methods
must surface WHO and CDC as well — above unrelated distractor tables.
"""

import numpy as np
import pytest

from repro.core import DiscoveryEngine
from repro.core.anns import ANNSearch
from repro.core.cts import ClusteredTargetedSearch
from repro.core.exhaustive import ExhaustiveSearch
from repro.errors import ConfigurationError, NotFittedError

COVID_TRIO = {"WHO/WHO", "CDC/CDC", "ECDC/ECDC"}


@pytest.mark.parametrize("method", ["exs", "anns", "cts"])
class TestFigure1Semantics:
    def test_covid_query_finds_all_three_sources(self, indexed_engine, method):
        result = indexed_engine.search("COVID", method=method, k=6, h=-1.0)
        top3 = set(result.relation_ids()[:3])
        assert top3 == COVID_TRIO

    def test_scores_descending(self, indexed_engine, method):
        result = indexed_engine.search("vaccine", method=method, k=6, h=-1.0)
        scores = [m.score for m in result.matches]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_filters(self, indexed_engine, method):
        everything = indexed_engine.search("COVID", method=method, k=6, h=-1.0)
        strict = indexed_engine.search("COVID", method=method, k=6, h=0.15)
        assert len(strict) <= len(everything)
        assert all(m.score >= 0.15 for m in strict.matches)

    def test_top_k_respected(self, indexed_engine, method):
        result = indexed_engine.search("COVID", method=method, k=2, h=-1.0)
        assert len(result) <= 2

    def test_elapsed_recorded(self, indexed_engine, method):
        result = indexed_engine.search("COVID", method=method)
        assert result.elapsed_ms > 0

    def test_unrelated_query_ranks_distractor_first(self, indexed_engine, method):
        result = indexed_engine.search("football trophy", method=method, k=3, h=-1.0)
        assert result.top().relation_id == "FootballResults/FootballResults"


class TestExhaustiveSearch:
    def test_mean_equals_manual_average(self, indexed_engine):
        exs = indexed_engine.method("exs")
        q = indexed_engine.embeddings.encode_query("COVID")
        rel = indexed_engine.embeddings.relations[0]
        expected = float(np.average(rel.vectors @ q, weights=rel.counts))
        match = {
            m.relation_id: m.score for m in exs.search("COVID", k=10, h=-1.0).matches
        }[rel.relation_id]
        assert match == pytest.approx(expected, abs=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExhaustiveSearch(dtype=np.int64)
        # ExS is the paper's mean aggregation only.
        with pytest.raises(TypeError):
            ExhaustiveSearch(aggregate="mean")

    def test_unindexed(self):
        with pytest.raises(NotFittedError):
            ExhaustiveSearch().search("x")


class TestANNSearch:
    def test_index_kinds(self, indexed_engine):
        for kind in ("exact", "hnsw"):
            anns = ANNSearch(index_kind=kind, n_candidates=64)
            anns.index(indexed_engine.embeddings)
            result = anns.search("COVID", k=3, h=-1.0)
            assert set(result.relation_ids()) & COVID_TRIO

    def test_deduplicated_storage(self, indexed_engine):
        anns = indexed_engine.method("anns")
        collection = anns.database.get_collection("values")
        values = [p.payload["value"] for p in collection.scroll()]
        assert len(values) == len(set(values))

    def test_owners_cover_duplicates(self, indexed_engine):
        anns = indexed_engine.method("anns")
        collection = anns.database.get_collection("values")
        # "2021-01-01" appears in WHO, CDC and ECDC
        shared = [p for p in collection.scroll() if p.payload["value"] == "2021-01-01"]
        assert len(shared) == 1
        owner_rels = {rel for rel, _, _ in shared[0].payload["owners"]}
        assert owner_rels == COVID_TRIO

    def test_invalid_candidates(self):
        with pytest.raises(ValueError):
            ANNSearch(n_candidates=0)

    def test_auto_candidate_budget(self):
        """``max(256, n_relations // 2)`` unless ``n_candidates`` is set."""
        auto = ANNSearch()
        assert auto.candidate_budget(100) == 256
        assert auto.candidate_budget(600) == 300
        assert auto.candidate_budget(10_000) == 5_000
        assert ANNSearch(n_candidates=64).candidate_budget(10_000) == 64


class TestCTS:
    def test_cluster_structure_exposed(self, indexed_engine):
        cts = indexed_engine.method("cts")
        assert cts.n_clusters >= 1
        sizes = cts.cluster_sizes()
        assert sum(sizes.values()) == indexed_engine.embeddings.total_vectors
        assert cts.n_noise_points >= 0

    def test_medoid_collection_in_original_space(self, indexed_engine):
        cts = indexed_engine.method("cts")
        medoids = cts.database.get_collection("medoids")
        assert medoids.dim == indexed_engine.embeddings.dim
        assert len(medoids) == cts.n_clusters

    def test_cluster_collections_in_reduced_space(self, indexed_engine):
        cts = indexed_engine.method("cts")
        sizes = cts.cluster_sizes()
        for cid in sizes:
            col = cts.database.get_collection(f"cluster_{cid}")
            assert len(col) == sizes[cid]
            assert col.dim < indexed_engine.embeddings.dim

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ClusteredTargetedSearch(top_clusters=0)
        with pytest.raises(ConfigurationError):
            ClusteredTargetedSearch(per_cluster_candidates=0)
        with pytest.raises(ConfigurationError):
            ClusteredTargetedSearch(evidence_size=0)


class TestDiscoveryEngine:
    def test_methods_cached(self, indexed_engine):
        assert indexed_engine.method("exs") is indexed_engine.method("exs")

    def test_unknown_method(self, indexed_engine):
        with pytest.raises(ConfigurationError):
            indexed_engine.search("x", method="magic")

    def test_unknown_method_params(self):
        with pytest.raises(ConfigurationError):
            DiscoveryEngine(method_params={"nope": {}})

    def test_unindexed_engine(self):
        with pytest.raises(NotFittedError):
            DiscoveryEngine(dim=32).search("x")

    def test_reindex_clears_methods(self, covid_fed):
        engine = DiscoveryEngine(dim=64)
        engine.index(covid_fed)
        first = engine.method("exs")
        engine.index(covid_fed)
        assert engine.method("exs") is not first


class TestCTSQueryProjection:
    def test_reduce_query_lands_in_reduced_space(self, indexed_engine):
        import numpy as np

        cts = indexed_engine.method("cts")
        q = indexed_engine.embeddings.encode_query("covid vaccine")
        projected = cts.reduce_query(q)
        medoids = cts.database.get_collection("medoids")
        reduced_dim = cts.database.get_collection(
            f"cluster_{sorted(cts.cluster_sizes())[0]}"
        ).dim
        assert projected.shape == (reduced_dim,)
        assert np.all(np.isfinite(projected))

    def test_reduce_query_deterministic(self, indexed_engine):
        import numpy as np

        cts = indexed_engine.method("cts")
        q = indexed_engine.embeddings.encode_query("football")
        np.testing.assert_array_equal(cts.reduce_query(q), cts.reduce_query(q))
