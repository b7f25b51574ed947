"""Tests for the embedding substrate (hashing, semantic, co-occurrence, cache)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.embedding import (
    CachingEncoder,
    CooccurrenceEncoder,
    HashedFeatureSpace,
    SemanticHashEncoder,
    mean_pool,
)
from repro.errors import ConfigurationError, NotFittedError


class TestHashedFeatureSpace:
    def test_deterministic_across_instances(self):
        a = HashedFeatureSpace(32, namespace="x")
        b = HashedFeatureSpace(32, namespace="x")
        np.testing.assert_array_equal(a.vector("token"), b.vector("token"))

    def test_namespaces_decorrelate(self):
        a = HashedFeatureSpace(64, namespace="x").vector("token")
        b = HashedFeatureSpace(64, namespace="y").vector("token")
        assert abs(float(a @ b)) < 0.5

    def test_unit_norm(self):
        v = HashedFeatureSpace(128).vector("anything")
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_near_orthogonality(self):
        space = HashedFeatureSpace(256)
        sims = [
            abs(float(space.vector(f"a{i}") @ space.vector(f"b{i}"))) for i in range(20)
        ]
        assert max(sims) < 0.3

    def test_weighted_sum(self):
        space = HashedFeatureSpace(32)
        out = space.weighted_sum({"a": 2.0, "b": 0.0})
        np.testing.assert_allclose(out, 2.0 * space.vector("a"))

    def test_cache_eviction(self):
        space = HashedFeatureSpace(8, max_cache_size=2)
        for i in range(5):
            space.vector(f"t{i}")
        assert space.cache_size() <= 2

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            HashedFeatureSpace(0)


class TestMeanPool:
    def test_uniform(self):
        pooled = mean_pool(np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(pooled, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_weighted(self):
        pooled = mean_pool(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(pooled, [1.0, 0.0])

    def test_zero_weights_fall_back_to_uniform(self):
        pooled = mean_pool(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
        assert np.linalg.norm(pooled) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_pool(np.empty((0, 4)))


class TestSemanticHashEncoder:
    def test_output_shape_and_norm(self, encoder64):
        out = encoder64.encode(["hello world", "foo"])
        assert out.shape == (2, 64)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_empty_text_is_zero(self, encoder64):
        assert np.linalg.norm(encoder64.encode_one("")) == 0.0

    def test_deterministic(self, encoder64):
        a = encoder64.encode_one("covid vaccine")
        b = encoder64.encode_one("covid vaccine")
        np.testing.assert_array_equal(a, b)

    def test_synonyms_close_unrelated_far(self):
        enc = SemanticHashEncoder(dim=256)
        synonym = float(enc.encode_one("comirnaty") @ enc.encode_one("vaxzevria"))
        unrelated = float(enc.encode_one("comirnaty") @ enc.encode_one("harvest"))
        assert synonym > 0.5
        assert synonym > unrelated + 0.3

    def test_hypernym_weaker_than_synonym(self):
        enc = SemanticHashEncoder(dim=256)
        synonym = float(enc.encode_one("covid") @ enc.encode_one("coronavirus"))
        hyper = float(enc.encode_one("comirnaty") @ enc.encode_one("covid"))
        assert synonym > hyper > 0.05

    def test_sister_countries_weakly_related(self):
        enc = SemanticHashEncoder(dim=256)
        sisters = float(enc.encode_one("poland") @ enc.encode_one("austria"))
        assert 0.02 < sisters < 0.45

    def test_years_distinguishable(self):
        enc = SemanticHashEncoder(dim=256)
        assert float(enc.encode_one("2020") @ enc.encode_one("2021")) < 0.5

    def test_numbers_same_magnitude_related(self):
        enc = SemanticHashEncoder(dim=256)
        same_mag = float(enc.encode_one("45123") @ enc.encode_one("87654"))
        diff_mag = float(enc.encode_one("45123") @ enc.encode_one("7"))
        assert same_mag > diff_mag

    def test_phrase_concepts_detected(self):
        enc = SemanticHashEncoder(dim=256)
        phrase = float(
            enc.encode_one("climate change effects") @ enc.encode_one("global warming")
        )
        assert phrase > 0.2

    def test_morphological_similarity_via_chargrams(self):
        enc = SemanticHashEncoder(dim=256, concept_weight=0.0)
        related = float(enc.encode_one("running") @ enc.encode_one("runner"))
        unrelated = float(enc.encode_one("running") @ enc.encode_one("zebra"))
        assert related > unrelated

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            SemanticHashEncoder(dim=4)

    def test_clear_caches(self, encoder64):
        encoder64.encode_one("warm the cache")
        encoder64.clear_caches()
        # still functions after cache clear
        assert encoder64.encode_one("warm the cache").shape == (64,)

    @given(st.text(alphabet="abcdefgh 0123456789", max_size=40))
    @settings(max_examples=25)
    def test_unit_or_zero_norm(self, text):
        enc = SemanticHashEncoder(dim=32)
        norm = np.linalg.norm(enc.encode_one(text))
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_bits_do_not_depend_on_the_hash_seed(self):
        """Concept expansion walks sets, whose order follows
        ``PYTHONHASHSEED``; unsorted, it summed concept vectors in another
        order in every process and moved float64 vectors in the last bit."""
        src = Path(repro.__file__).resolve().parents[1]
        texts = [
            "comirnaty booster in california",
            "pfizer moderna vaccination texas hospital",
            "covid-19 vaccine doses in germany and japan",
        ]
        script = (
            "import sys\n"
            "from repro.embedding import SemanticHashEncoder\n"
            f"vectors = SemanticHashEncoder(dim=64).encode({texts!r})\n"
            "sys.stdout.write(vectors.tobytes().hex())\n"
        )
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestCooccurrenceEncoder:
    CORPUS = [
        "dog barks at the cat",
        "cat chases the dog",
        "dog and cat are pets",
        "stocks rose on the market",
        "market prices and stocks fell",
        "investors watch the market and stocks",
    ] * 3

    def test_fit_and_encode(self):
        enc = CooccurrenceEncoder(dim=16, min_term_freq=2).fit(self.CORPUS)
        out = enc.encode(["dog cat", "stocks market"])
        assert out.shape == (2, 16)

    def test_distributional_similarity(self):
        enc = CooccurrenceEncoder(dim=16, min_term_freq=2).fit(self.CORPUS)
        related = enc.token_similarity("dog", "cat")
        unrelated = enc.token_similarity("dog", "stocks")
        assert related > unrelated

    def test_oov_fallback(self):
        enc = CooccurrenceEncoder(dim=16, min_term_freq=2).fit(self.CORPUS)
        out = enc.encode_one("zebra xylophone")
        assert np.linalg.norm(out) > 0

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            CooccurrenceEncoder(dim=8).encode(["x"])

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            CooccurrenceEncoder(dim=8).fit(["one"])

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            CooccurrenceEncoder(dim=1)
        with pytest.raises(ConfigurationError):
            CooccurrenceEncoder(window=0)


class TestCachingEncoder:
    def test_results_match_delegate(self, encoder64):
        cached = CachingEncoder(encoder64)
        texts = ["alpha", "beta", "alpha"]
        np.testing.assert_array_equal(cached.encode(texts), encoder64.encode(texts))

    def test_hit_counting(self, encoder64):
        cached = CachingEncoder(encoder64)
        cached.encode(["x", "y"])
        cached.encode(["x", "z"])
        info = cached.cache_info()
        assert info["hits"] == 1 and info["misses"] == 3

    def test_eviction(self, encoder64):
        cached = CachingEncoder(encoder64, max_size=2)
        cached.encode(["a", "b", "c"])
        assert cached.cache_info()["size"] <= 2

    def test_clear(self, encoder64):
        cached = CachingEncoder(encoder64)
        cached.encode(["a"])
        cached.clear()
        assert cached.cache_info() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}

    def test_dim_forwarded(self, encoder64):
        assert CachingEncoder(encoder64).dim == 64

    def test_metrics_counters_mirror_cache_info(self, encoder64):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cached = CachingEncoder(encoder64, max_size=2, metrics=registry)
        cached.encode(["a", "b"])  # 2 misses
        cached.encode(["a", "c"])  # 1 hit, 1 miss + eviction (max_size=2)
        info = cached.cache_info()
        assert info == {"hits": 1, "misses": 3, "evictions": 1, "size": 2}
        counters = registry.snapshot()["counters"]
        assert counters["encoder_cache.hits"] == info["hits"]
        assert counters["encoder_cache.misses"] == info["misses"]
        assert counters["encoder_cache.evictions"] == info["evictions"]

    def test_threaded_counters_stay_consistent(self, encoder64):
        """Regression: pool threads encoding concurrently must account
        every text exactly once — hits + misses == texts seen, and the
        metrics counters agree with the int attributes."""
        import threading as _threading

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cached = CachingEncoder(encoder64, metrics=registry)
        texts = [f"word{i % 7}" for i in range(50)]
        barrier = _threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(5):
                cached.encode(texts)

        threads = [_threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        info = cached.cache_info()
        assert info["hits"] + info["misses"] == 4 * 5 * len(texts)
        assert info["size"] == 7
        assert info["evictions"] == 0
        counters = registry.snapshot()["counters"]
        assert counters["encoder_cache.hits"] == info["hits"]
        assert counters["encoder_cache.misses"] == info["misses"]
