"""Counters, latency histograms and stage timers for the serving path.

One :class:`MetricsRegistry` travels with a :class:`DiscoveryEngine`
through its search methods down into the vector database, so every
layer records into the same vocabulary:

* counters — monotone event counts (``engine.queries``,
  ``vectordb.points_scanned``, ``vectordb.index_probes``);
* gauges — point-in-time levels that move both ways
  (``engine.generation``, ``cts.drift`` staleness);
* histograms — latency distributions with p50/p95/p99, fed by stage
  timers named ``<method>.<stage>`` for the stages ``encode`` /
  ``scan`` / ``route`` / ``rank``.

All classes are thread-safe: concurrent callers and the serving
layer's dispatch threads all report into the shared registry.
"""

from __future__ import annotations

import math
import time
from typing import Any, Iterator

from repro.sanitize import lockset

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Timer"]


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "_value", "_lock", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = lockset.tracked_lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use reset() to zero")
        with self._lock:
            lockset.write(self, "_value")
            self._value += amount

    @property
    def value(self) -> int:
        # Read under the same lock inc() holds: CPython makes a bare
        # int read atomic, but the lock is what guarantees a reader
        # observes every increment a finished inc() call made.
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            lockset.write(self, "_value")
            self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A level that can rise and fall (generations, drift, staleness).

    Unlike a :class:`Counter` a gauge is set, not accumulated: the
    lifecycle paths publish the *current* value of a quantity — the
    store generation a method has applied, the drift CTS has absorbed
    since its last re-cluster — and each :meth:`set` replaces the last.
    """

    __slots__ = ("name", "_value", "_lock", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lockset.tracked_lock()

    def set(self, value: float) -> None:
        with self._lock:
            lockset.write(self, "_value")
            self._value = float(value)

    @property
    def value(self) -> float:
        # Same single-lock read discipline as Counter.value.
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            lockset.write(self, "_value")
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A distribution of observations (milliseconds, by convention).

    Observations are kept raw — the serving paths record a handful of
    values per query, so percentiles can be exact (nearest-rank) rather
    than approximated by fixed buckets.
    """

    __slots__ = ("name", "_values", "_lock", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = lockset.tracked_lock()

    def observe(self, value: float) -> None:
        with self._lock:
            lockset.write(self, "_values")
            self._values.append(float(value))

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def total(self) -> float:
        with self._lock:
            return math.fsum(self._values)

    @property
    def mean(self) -> float:
        with self._lock:
            return math.fsum(self._values) / len(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return max(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; 0 when nothing was observed."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._values:
                return 0.0
            ordered = sorted(self._values)
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            return ordered[rank - 1]

    def summary(self) -> dict[str, float]:
        """count / total / mean / p50 / p95 / p99 / max in one dict."""
        return {
            "count": self.count,
            "total_ms": self.total,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "max_ms": self.max,
        }

    def reset(self) -> None:
        with self._lock:
            lockset.write(self, "_values")
            self._values.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class Timer:
    """Context manager recording elapsed wall-clock ms into a histogram."""

    __slots__ = ("_histogram", "_start", "elapsed_ms")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed_ms = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        self._histogram.observe(self.elapsed_ms)


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    The registry is the only object layers share: code asks for
    ``metrics.counter("engine.queries")`` or wraps a stage in
    ``with metrics.timer("exs.scan"): ...`` and never needs to know
    who else records into the same instrument.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = lockset.tracked_lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                lockset.write(self, "_counters")
                counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                lockset.write(self, "_gauges")
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                lockset.write(self, "_histograms")
                histogram = self._histograms[name] = Histogram(name)
            return histogram

    def timer(self, name: str) -> Timer:
        """A context manager timing one stage into histogram ``name``."""
        return Timer(self.histogram(name))

    def counters(self) -> Iterator[Counter]:
        with self._lock:
            return iter(list(self._counters.values()))

    def gauges(self) -> Iterator[Gauge]:
        with self._lock:
            return iter(list(self._gauges.values()))

    def histograms(self) -> Iterator[Histogram]:
        with self._lock:
            return iter(list(self._histograms.values()))

    def snapshot(self) -> dict[str, Any]:
        """A view at one instant: counters + gauges + histogram summaries."""
        return {
            "counters": {c.name: c.value for c in sorted(self.counters(), key=lambda c: c.name)},
            "gauges": {g.name: g.value for g in sorted(self.gauges(), key=lambda g: g.name)},
            "stages": {
                h.name: h.summary()
                for h in sorted(self.histograms(), key=lambda h: h.name)
            },
        }

    def format_table(self) -> str:
        """The snapshot rendered as an aligned, printable text table."""
        snap = self.snapshot()
        lines = ["counters", "--------"]
        if not snap["counters"]:
            lines.append("(none)")
        width = max((len(n) for n in snap["counters"]), default=0)
        for name, value in snap["counters"].items():
            lines.append(f"{name:<{width}}  {value}")
        if snap["gauges"]:
            lines += ["", "gauges", "------"]
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"{name:<{width}}  {value:g}")
        lines += ["", "stages (ms)", "-----------"]
        if not snap["stages"]:
            lines.append("(none)")
        else:
            width = max(len(n) for n in snap["stages"])
            header = f"{'stage':<{width}}  {'count':>7} {'mean':>9} {'p50':>9} {'p95':>9} {'p99':>9} {'max':>9}"
            lines.append(header)
            for name, s in snap["stages"].items():
                lines.append(
                    f"{name:<{width}}  {s['count']:>7} {s['mean_ms']:>9.3f} "
                    f"{s['p50_ms']:>9.3f} {s['p95_ms']:>9.3f} {s['p99_ms']:>9.3f} "
                    f"{s['max_ms']:>9.3f}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every instrument (instances stay registered)."""
        for counter in self.counters():
            counter.reset()
        for gauge in self.gauges():
            gauge.reset()
        for histogram in self.histograms():
            histogram.reset()
