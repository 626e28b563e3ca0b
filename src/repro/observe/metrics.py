"""Thread-safe counters, gauges, histograms, and latency windows.

A :class:`MetricsRegistry` is a tiny, dependency-free metrics store:
monotonically increasing *counters* (tile counts, bytes allocated),
last-value *gauges* (redundancy ratios, group counts), and fixed-bucket
:class:`Histogram` distributions (per-stage serving latencies).  All
operations take one short lock; readers get snapshot copies, so a
registry can be hammered from a tile thread pool while another thread
renders it.

A :class:`Histogram` uses *fixed log-spaced buckets*, which buys the two
properties a multi-process serving deployment needs and a sample ring
cannot give: histograms with the same bucket bounds :meth:`~Histogram.
merge` exactly (no resampling error), and the whole state is a small
JSON document (:meth:`~Histogram.to_dict` / :meth:`~Histogram.
from_dict`) that shards can ship to an aggregator.  Percentiles are
estimated by linear interpolation inside the winning bucket, so their
error is bounded by the bucket ratio.

A :class:`LatencyWindow` keeps a fixed-capacity ring of recent duration
samples and answers percentile queries over it — the p50/p99 view the
serving layer (:mod:`repro.serve`) and its benchmark report.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left


def default_latency_buckets(lo: float = 1e-4, hi: float = 60.0,
                            factor: float = 2.0) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[lo, hi]`` seconds.

    The defaults span 100 µs to ~1 min in ×2 steps (about 20 buckets) —
    wide enough for queue waits and native calls alike, coarse enough
    that a snapshot stays a handful of integers.
    """
    if lo <= 0 or factor <= 1:
        raise ValueError("buckets need lo > 0 and factor > 1")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


class Histogram:
    """Fixed-bucket histogram: mergeable, JSON round-trippable.

    ``buckets`` is an ascending tuple of *upper bounds*; one implicit
    overflow bucket (``+Inf``) catches everything above the last bound.
    ``observe`` is a bisect plus a few adds under one short lock, cheap
    enough for a serving hot path.
    """

    __slots__ = ("buckets", "_lock", "_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, buckets=None):
        bounds = tuple(buckets) if buckets is not None \
            else default_latency_buckets()
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"buckets must be non-empty and strictly ascending, "
                f"got {bounds}")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    # -- writes ------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one sample (same units as the bucket bounds)."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with *identical* bucket bounds in.

        Bucket-exact: merged percentile estimates equal what one
        histogram observing both sample streams would report — the
        property that makes per-process shards aggregatable.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{len(self.buckets)} vs {len(other.buckets)} bounds")
        with other._lock:
            counts = list(other._counts)
            total, count = other._sum, other._count
            lo, hi = other._min, other._max
        with self._lock:
            for i, n in enumerate(counts):
                self._counts[i] += n
            self._sum += total
            self._count += count
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)

    def clear(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = math.inf
            self._max = -math.inf

    # -- reads -------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style;
        the final pair's bound is ``math.inf`` and its count equals the
        total sample count."""
        with self._lock:
            counts = list(self._counts)
        pairs, running = [], 0
        for bound, n in zip((*self.buckets, math.inf), counts):
            running += n
            pairs.append((bound, running))
        return pairs

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) by interpolating
        inside the winning bucket; 0.0 while empty.  Samples beyond the
        last bound report the maximum observed value."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            count = self._count
            lo_seen, hi_seen = self._min, self._max
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * count))
        running = 0
        for i, n in enumerate(counts):
            if running + n >= rank:
                if i >= len(self.buckets):  # overflow bucket
                    return hi_seen
                lo = self.buckets[i - 1] if i > 0 else min(lo_seen, 0.0)
                hi = self.buckets[i]
                frac = (rank - running) / n
                return lo + (hi - lo) * frac
            running += n
        return hi_seen

    def summary(self) -> dict:
        """JSON-ready summary: count, sum, mean, min/max, p50/p90/p99
        (all in the recorded units)."""
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        if count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": count, "sum": total, "mean": total / count,
            "min": lo, "max": hi,
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Full JSON-serializable state; :meth:`from_dict` restores it."""
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls(buckets=data["buckets"])
        counts = list(data["counts"])
        if len(counts) != len(hist.buckets) + 1:
            raise ValueError(
                f"counts length {len(counts)} does not match "
                f"{len(hist.buckets)} buckets + overflow")
        hist._counts = counts
        hist._sum = float(data["sum"])
        hist._count = int(data["count"])
        hist._min = data["min"] if data.get("min") is not None else math.inf
        hist._max = data["max"] if data.get("max") is not None \
            else -math.inf
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms, safe for concurrent
    writers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writes ------------------------------------------------------------
    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: int | float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def set_counter(self, name: str, value: int | float) -> None:
        """Overwrite the counter ``name`` with an externally maintained
        total — the mirror-at-scrape primitive for callers that keep
        their own hot-path counters and sync them into the registry
        lazily (idempotent, unlike :meth:`count`)."""
        with self._lock:
            self._counters[name] = value

    def histogram(self, name: str, buckets=None) -> Histogram:
        """The histogram ``name``, created (with ``buckets``) on first
        use.  The returned object is shared and thread-safe — hot paths
        should hold onto it instead of re-resolving the name."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(buckets)
            return hist

    def observe(self, name: str, value: float, buckets=None) -> None:
        """Record one sample into the histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    # -- reads -------------------------------------------------------------
    def counter(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of everything recorded.

        The ``histograms`` key is present only when histograms exist, so
        registries that never record one keep the pre-histogram shape.
        """
        with self._lock:
            snapshot = {"counters": dict(self._counters),
                        "gauges": dict(self._gauges)}
            hists = dict(self._histograms)
        if hists:
            snapshot["histograms"] = {name: h.to_dict()
                                      for name, h in hists.items()}
        return snapshot

    def expose_text(self, prefix: str = "") -> str:
        """This registry rendered in Prometheus text exposition format
        (see :func:`repro.observe.export.render_exposition`)."""
        from repro.observe.export import render_exposition
        return render_exposition(self.as_dict(), prefix=prefix)

    # -- maintenance -------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges overwrite,
        histograms merge bucket-exactly (bounds must match)."""
        snapshot = other.as_dict()
        with self._lock:
            for name, v in snapshot["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + v
            self._gauges.update(snapshot["gauges"])
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, data["buckets"]).merge(
                Histogram.from_dict(data))


#: samples a :class:`LatencyWindow` keeps (the most recent ones)
LATENCY_WINDOW = 2048


def _nearest_rank(window: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of a sorted, non-empty window."""
    return window[max(0, math.ceil(q / 100.0 * len(window)) - 1)]


class LatencyWindow:
    """Fixed-capacity ring of duration samples with percentile queries.

    ``record`` is O(1) and lock-cheap, so it can sit on a serving hot
    path; ``percentile``/``snapshot`` sort a copy of the window (at most
    :data:`LATENCY_WINDOW` items) on the reader's thread.  Durations are
    recorded in seconds and reported in milliseconds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ring: list[float] = [0.0] * LATENCY_WINDOW
        self._next = 0
        self._count = 0  # total samples ever recorded

    def record(self, seconds: float) -> None:
        with self._lock:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % LATENCY_WINDOW
            self._count += 1

    def _window(self) -> list[float]:
        with self._lock:
            return self._ring[:self._count] \
                if self._count <= LATENCY_WINDOW else list(self._ring)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) in milliseconds over the
        window; 0.0 while empty.  Nearest-rank on the sorted window."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        window = self._window()
        if not window:
            return 0.0
        window.sort()
        return _nearest_rank(window, q) * 1000.0

    def snapshot(self) -> dict:
        """JSON-ready summary: count, mean and p50/p90/p99 (ms)."""
        window = self._window()
        with self._lock:
            count = self._count
        if not window:
            return {"count": count, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p90_ms": 0.0, "p99_ms": 0.0}
        window.sort()
        return {
            "count": count,
            "mean_ms": sum(window) / len(window) * 1000.0,
            "p50_ms": _nearest_rank(window, 50) * 1000.0,
            "p90_ms": _nearest_rank(window, 90) * 1000.0,
            "p99_ms": _nearest_rank(window, 99) * 1000.0,
        }

    def clear(self) -> None:
        with self._lock:
            self._next = 0
            self._count = 0
