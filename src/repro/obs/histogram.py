"""Fixed-bucket latency histograms with derivable percentiles.

:class:`LatencyHistogram` replaces the mean/max running aggregates that
``ServiceMetrics`` and ``HTTPCounters`` used to keep: a small fixed set of
millisecond bucket boundaries, one counter per bucket, plus exact sum,
count and max.  Percentiles (p50/p95/p99, or any quantile) are derived by
linear interpolation inside the bucket holding the target rank, so the
estimate always lands inside the same bucket as the true sample quantile
— the bracketing property the test suite pins down.

Histograms are built to cross process boundaries without pickling the
object itself: :meth:`LatencyHistogram.snapshot_into` writes per-bucket
counts as flat ``<prefix>.latency_ms_le.<edge>`` keys into an ordinary
stats dict, and :func:`aggregate_latency_keys` folds those keys from any
number of shard snapshots back into merged histograms — this is how the
cluster coordinator aggregates shard latency into ``/stats``.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "LatencyHistogram",
    "aggregate_latency_keys",
    "edge_label",
]

#: Default bucket upper edges in milliseconds.  Spans sub-millisecond cache
#: hits through ten-second distributed cover queries; the implicit final
#: bucket is +Inf.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)

#: Flat-key fragment marking a per-bucket count (see ``snapshot_into``).
_LE_FRAGMENT = ".latency_ms_le."
#: Flat-key suffix marking the exact latency sum companion.
_SUM_SUFFIX = ".latency_ms_sum"

_KEY_RE = re.compile(
    r"^(?P<prefix>.+)\.latency_ms_le\.(?P<edge>inf|[0-9.]+)$"
)


def edge_label(edge: float) -> str:
    """Canonical flat-key / Prometheus ``le`` label for a bucket *edge*.

    Finite edges render via their shortest round-trip representation
    (``2.5``, ``10``, ``10000``) with a trailing ``.0`` stripped — a
    ``%g``-style fixed precision would corrupt edges with more than six
    significant digits when a shard snapshot is parsed back for
    aggregation.  The overflow bucket renders as ``inf`` so it sorts
    last and parses back with ``float("inf")``.
    """
    if math.isinf(edge):
        return "inf"
    text = repr(float(edge))
    return text[:-2] if text.endswith(".0") else text


class LatencyHistogram:
    """Thread-safe fixed-bucket histogram of millisecond latencies.

    The bucket layout is a strictly increasing tuple of finite upper
    edges; observations larger than the last edge land in an implicit
    overflow bucket.  All mutation happens under an internal lock, so one
    instance may be shared by every serving thread of a process.
    """

    __slots__ = ("_edges", "_counts", "_sum", "_max", "_lock")

    def __init__(
        self, buckets_ms: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> None:
        edges = tuple(float(edge) for edge in buckets_ms)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        for lo, hi in zip(edges, edges[1:]):
            if not lo < hi:
                raise ValueError(
                    f"bucket edges must be strictly increasing, got {edges}"
                )
        if not all(math.isfinite(edge) and edge > 0 for edge in edges):
            raise ValueError(
                f"bucket edges must be finite and positive, got {edges}"
            )
        self._edges = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    @property
    def bucket_edges(self) -> Tuple[float, ...]:
        """The finite upper edges; the overflow bucket is implicit."""
        return self._edges

    def observe(self, value_ms: float) -> None:
        """Record one latency observation (milliseconds)."""
        value = float(value_ms)
        if value < 0.0 or not math.isfinite(value):
            value = 0.0
        index = bisect.bisect_left(self._edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def merge_counts(
        self, counts: Sequence[int], *, sum_ms: float = 0.0, max_ms: float = 0.0
    ) -> None:
        """Fold per-bucket *counts* from another same-layout histogram in.

        Used when reassembling shard-side histograms from flat snapshot
        keys; *counts* must have one entry per bucket including the
        overflow bucket.
        """
        if len(counts) != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)} bucket counts, got {len(counts)}"
            )
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(sum_ms)
            if max_ms > self._max:
                self._max = float(max_ms)

    def counts(self) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return tuple(self._counts)

    def cumulative_counts(self) -> Tuple[int, ...]:
        """Cumulative counts in Prometheus ``le`` convention."""
        total = 0
        out: List[int] = []
        for count in self.counts():
            total += count
            out.append(total)
        return tuple(out)

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return sum(self._counts)

    @property
    def sum_ms(self) -> float:
        """Exact sum of all observations (milliseconds)."""
        with self._lock:
            return self._sum

    @property
    def max_ms(self) -> float:
        """Largest observation seen (milliseconds)."""
        with self._lock:
            return self._max

    @property
    def mean_ms(self) -> float:
        """Exact mean of all observations, 0.0 when empty."""
        with self._lock:
            total = sum(self._counts)
            return self._sum / total if total else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (``0 <= q <= 1``) in milliseconds.

        Linear interpolation inside the bucket that holds the target
        rank; the overflow bucket reports its lower edge (the largest
        finite boundary), matching Prometheus ``histogram_quantile``.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts = self.counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count > 0:
                if index == len(self._edges):
                    return self._edges[-1]
                lo = 0.0 if index == 0 else self._edges[index - 1]
                hi = self._edges[index]
                fraction = (target - previous) / count
                # lo + (hi - lo) can round one ulp past hi; stay in the bucket.
                return min(hi, lo + fraction * (hi - lo))
        return self._edges[-1]

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p95/p99 summary, in milliseconds."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot_into(self, stats: Dict[str, float], prefix: str) -> None:
        """Write this histogram as flat keys under *prefix* into *stats*.

        Emits ``<prefix>.p50_latency_ms`` / ``p95`` / ``p99``, one
        ``<prefix>.latency_ms_le.<edge>`` per-bucket (non-cumulative)
        count, and ``<prefix>.latency_ms_sum``.  Per-bucket counts sum
        key-wise across shard snapshots, which is exactly how
        :func:`aggregate_latency_keys` merges them.
        """
        counts = self.counts()
        for name, value in self.percentiles().items():
            stats[f"{prefix}.{name}_latency_ms"] = round(value, 3)
        edges = [edge_label(edge) for edge in self._edges] + ["inf"]
        for label, count in zip(edges, counts):
            stats[f"{prefix}{_LE_FRAGMENT}{label}"] = float(count)
        stats[f"{prefix}{_SUM_SUFFIX}"] = round(self.sum_ms, 3)


def aggregate_latency_keys(
    snapshots: Iterable[Mapping[str, float]],
    *,
    key_prefix: Optional[str] = None,
) -> Dict[str, float]:
    """Merge flat histogram keys from many *snapshots* into one summary.

    Scans each snapshot for ``<prefix>.latency_ms_le.<edge>`` bucket
    counts (as written by :meth:`LatencyHistogram.snapshot_into`), sums
    them per ``(prefix, edge)``, rebuilds a merged histogram per prefix
    and re-emits the same flat-key shape — percentiles, per-bucket counts
    and sum.  *key_prefix*, when given, filters to source prefixes that
    start with it (e.g. ``"service."`` to aggregate only the per-service
    histograms out of full shard stats dicts).
    """
    buckets: Dict[str, Dict[float, float]] = {}
    sums: Dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            match = _KEY_RE.match(key)
            if match is not None:
                prefix = match.group("prefix")
                if key_prefix is not None and not prefix.startswith(key_prefix):
                    continue
                edge = float(match.group("edge"))
                per_edge = buckets.setdefault(prefix, {})
                per_edge[edge] = per_edge.get(edge, 0.0) + float(value)
            elif key.endswith(_SUM_SUFFIX):
                prefix = key[: -len(_SUM_SUFFIX)]
                if key_prefix is not None and not prefix.startswith(key_prefix):
                    continue
                sums[prefix] = sums.get(prefix, 0.0) + float(value)
    merged: Dict[str, float] = {}
    for prefix, per_edge in buckets.items():
        edges = sorted(edge for edge in per_edge if math.isfinite(edge))
        if not edges:
            continue
        histogram = LatencyHistogram(edges)
        counts = [int(per_edge.get(edge, 0.0)) for edge in edges]
        counts.append(int(per_edge.get(math.inf, 0.0)))
        histogram.merge_counts(counts, sum_ms=sums.get(prefix, 0.0))
        histogram.snapshot_into(merged, prefix)
    return merged
