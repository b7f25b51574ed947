"""REPRO_SANITIZE runtime checks: instrumented lock + operand guards.

The instrumented lock must *raise* exactly where the plain RWLock would
deadlock or corrupt state, and the kernel-boundary guards must catch
NaN/Inf poisoning and silent dtype promotion before a GEMM spreads them
into every downstream score.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import DiscoveryEngine
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.lifecycle import InstrumentedRWLock, RWLock
from repro.core.semimg import build_federation_embeddings
from repro.datamodel.relation import Relation
from repro.embedding.semantic import SemanticHashEncoder
from repro.errors import SanitizerError
from repro.sanitize import guard_operands, sanitize_enabled


class TestSanitizeEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "  0  "])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize_enabled()

    def test_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()


class TestGuardOperands:
    def test_clean_operands_pass(self):
        guard_operands(
            np.ones((2, 3), dtype=np.float32),
            np.zeros(3, dtype=np.float32),
            where="t",
            expect_dtype=np.dtype(np.float32),
        )

    def test_nan_raises(self):
        bad = np.ones(4)
        bad[2] = np.nan
        with pytest.raises(SanitizerError, match="NaN/Inf"):
            guard_operands(bad, where="t")

    def test_inf_raises(self):
        bad = np.ones(4, dtype=np.float32)
        bad[0] = np.inf
        with pytest.raises(SanitizerError, match="operand 1"):
            guard_operands(np.ones(2, dtype=np.float32), bad, where="t")

    def test_dtype_mismatch_raises(self):
        with pytest.raises(SanitizerError, match="dtype"):
            guard_operands(
                np.ones(4, dtype=np.float64),
                where="t",
                expect_dtype=np.dtype(np.float32),
            )

    def test_integer_operands_skip_finiteness(self):
        guard_operands(np.arange(5), where="t")


class TestInstrumentedRWLock:
    def test_plain_usage_works(self):
        lock = InstrumentedRWLock()
        with lock.read():
            pass
        with lock.write():
            pass
        with lock.read():
            pass

    def test_concurrent_readers_overlap(self):
        lock = InstrumentedRWLock()
        inside = threading.Barrier(2, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # both threads hold the reader side at once

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert not any(t.is_alive() for t in threads)

    def test_write_under_read_raises(self):
        lock = InstrumentedRWLock()
        with lock.read():
            with pytest.raises(SanitizerError, match="write-while-reading"):
                with lock.write():
                    pass

    def test_read_under_write_raises(self):
        lock = InstrumentedRWLock()
        with lock.write():
            with pytest.raises(SanitizerError, match="writer lock"):
                with lock.read():
                    pass

    def test_nested_read_raises(self):
        lock = InstrumentedRWLock()
        with lock.read():
            with pytest.raises(SanitizerError, match="nested read"):
                with lock.read():
                    pass

    def test_nested_write_raises(self):
        lock = InstrumentedRWLock()
        with lock.write():
            with pytest.raises(SanitizerError, match="nested write"):
                with lock.write():
                    pass

    def test_double_release_raises(self):
        lock = InstrumentedRWLock()
        with pytest.raises(SanitizerError, match="does not hold"):
            lock.release_read()
        with pytest.raises(SanitizerError, match="does not hold"):
            lock.release_write()
        lock.acquire_read()
        lock.release_read()
        with pytest.raises(SanitizerError, match="does not hold"):
            lock.release_read()

    def test_writer_starvation_times_out(self):
        lock = InstrumentedRWLock(writer_timeout=0.1)
        holding = threading.Event()
        release = threading.Event()

        def stuck_reader():
            with lock.read():
                holding.set()
                release.wait(5.0)

        t = threading.Thread(target=stuck_reader, daemon=True)
        t.start()
        assert holding.wait(5.0)
        try:
            with pytest.raises(SanitizerError, match="starved"):
                with lock.write():
                    pass
        finally:
            release.set()
            t.join(5.0)
        # The failed acquire must not leave the waiting-writer count
        # raised — readers proceed normally afterwards.
        with lock.read():
            pass

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            InstrumentedRWLock(writer_timeout=0.0)


@pytest.fixture()
def sanitized_engine(tiny_federation) -> DiscoveryEngine:
    return DiscoveryEngine(dim=64, sanitize=True).index(tiny_federation)


class TestEngineSanitizerMode:
    def test_lock_swap(self, tiny_federation):
        armed = DiscoveryEngine(dim=64, sanitize=True)
        plain = DiscoveryEngine(dim=64, sanitize=False)
        assert isinstance(armed._lifecycle_lock, InstrumentedRWLock)
        assert isinstance(plain._lifecycle_lock, RWLock)
        assert not isinstance(plain._lifecycle_lock, InstrumentedRWLock)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert DiscoveryEngine(dim=64).sanitize
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not DiscoveryEngine(dim=64).sanitize

    def test_injected_write_under_read_is_caught(self, sanitized_engine):
        """The acceptance demo: a delta issued while the same thread is
        inside the reader lock raises instead of deadlocking."""
        extra = Relation(
            "extra",
            ["Topic", "Year"],
            [["storms", "2022"], ["floods", "2023"]],
            caption="weather events",
        )
        with pytest.raises(SanitizerError, match="write-while-reading"):
            with sanitized_engine._lifecycle_lock.read():
                sanitized_engine.add_relations({"extra/extra": extra})

    def test_methods_inherit_sanitize(self, sanitized_engine):
        assert sanitized_engine.method("exs").sanitize is True

    def test_search_still_works_under_sanitize(self, sanitized_engine):
        result = sanitized_engine.search("vaccination europe", method="exs", k=2)
        assert result.matches


class TestFusedKernelGuards:
    def _exs(self, tiny_federation) -> ExhaustiveSearch:
        embeddings = build_federation_embeddings(
            tiny_federation, SemanticHashEncoder(dim=64)
        )
        exs = ExhaustiveSearch()
        exs.sanitize = True
        return exs.index(embeddings)

    def test_poisoned_matrix_is_caught(self, tiny_federation):
        """A NaN in the centroid matrix stops the row-wise scan."""
        exs = self._exs(tiny_federation)
        assert exs._matrix is not None
        exs._matrix[0, 0] = np.nan
        with pytest.raises(SanitizerError, match="NaN/Inf"):
            exs.search_batch(["vaccine"])

    def test_dtype_mismatched_query_block_is_caught(self, tiny_federation):
        """The float64 centroids would silently absorb a float64 block;
        the guard holds queries to float32."""
        exs = self._exs(tiny_federation)
        block = np.ones((1, 64), dtype=np.float64)
        with pytest.raises(SanitizerError, match="dtype"):
            exs._scan(block, k=5, h=0.0)

    @pytest.mark.parametrize("aggregate, promoted", [("mean", np.float32)])
    def test_dtype_mismatched_matrix_is_caught(self, tiny_federation, aggregate, promoted):
        """The centroid matrix keeps a dtype check of its own: float64,
        while queries are float32."""
        exs = self._exs(tiny_federation)
        assert exs._matrix is not None
        exs._matrix = exs._matrix.astype(promoted)
        with pytest.raises(SanitizerError, match="operand 0 has dtype"):
            exs.search_batch(["vaccine"])

    def test_clean_scan_unaffected(self, tiny_federation):
        exs = self._exs(tiny_federation)
        batch = exs.search_batch(["vaccine", "football"])
        assert len(batch) == 2


class TestCollectionGuards:
    def _collection(self, monkeypatch, dtype):
        from repro.vectordb.collection import Collection

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rows = [np.full(4, float(i + 1)) for i in range(3)]
        return Collection("guarded", np.array(rows, dtype=dtype))

    def test_nan_query_block_is_caught(self, monkeypatch):
        col = self._collection(monkeypatch, np.float32)
        bad = np.ones((2, 4), dtype=np.float32)
        bad[1, 3] = np.nan
        with pytest.raises(SanitizerError, match="NaN/Inf"):
            col.search_rows(bad, k=1)

    def test_dtype_promoted_query_block_is_caught(self, monkeypatch):
        col = self._collection(monkeypatch, np.float32)
        with pytest.raises(SanitizerError, match="dtype"):
            col.search_rows(np.ones((1, 4), dtype=np.float64), k=1)

    def test_clean_batch_passes(self, monkeypatch):
        col = self._collection(monkeypatch, np.float32)
        found = col.search_rows(np.ones((2, 4), dtype=np.float32), k=2)
        assert len(found) == 2 and len(found[0][0]) == 2

    def test_unarmed_collection_casts_silently(self, monkeypatch):
        from repro.vectordb.collection import Collection

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        col = Collection("plain", np.ones((1, 4), dtype=np.float32))
        found = col.search_rows(np.ones((1, 4), dtype=np.float64), k=1)
        assert len(found[0][0]) == 1
