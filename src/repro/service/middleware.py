"""Composable middleware for the OCTOPUS service dispatcher.

A middleware is any callable ``(request, call_next) -> ServiceResponse``
where ``call_next(request)`` invokes the rest of the stack.  The dispatcher
composes a list of middleware outermost-first around the actual handler, so
cross-cutting serving concerns — metrics, rate limiting, validation, result
caching — are written once here instead of being re-implemented (or
forgotten) at every entry point.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.index.cache import LRUCache
from repro.obs.histogram import LatencyHistogram
from repro.obs.trace import stage
from repro.service.requests import ServiceRequest
from repro.service.responses import ServiceResponse
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "Handler",
    "Middleware",
    "Counters",
    "ServiceMetrics",
    "MetricsMiddleware",
    "ValidationMiddleware",
    "CacheMiddleware",
    "RateLimitMiddleware",
]

Handler = Callable[[ServiceRequest], ServiceResponse]
Middleware = Callable[[ServiceRequest, Handler], ServiceResponse]


class Counters:
    """Thread-safe named counters and gauges for serving-layer metrics.

    The generic sibling of :class:`ServiceMetrics`: where that collector
    folds whole responses, this one counts *events* — queue admissions,
    shed requests, lane dispatches, timeouts — under one lock, and
    snapshots them flat under a fixed prefix so every front end's counters
    land in the same ``stats()`` dict shape.  ``observe`` additionally
    tracks a running maximum (``<name>.max``) for depth-style gauges.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._counts: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name* (created at zero)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record a gauge sample: keeps the running maximum of *name*."""
        with self._lock:
            if value > self._maxima.get(name, float("-inf")):
                self._maxima[name] = value

    def value(self, name: str) -> float:
        """Current value of counter *name* (0.0 when never incremented)."""
        with self._lock:
            return self._counts.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every counter and gauge, prefix applied."""
        with self._lock:
            stats = {
                f"{self.prefix}{name}": value
                for name, value in sorted(self._counts.items())
            }
            stats.update(
                {
                    f"{self.prefix}{name}.max": value
                    for name, value in sorted(self._maxima.items())
                }
            )
            return stats


@dataclass
class _ServiceCounters:
    """Per-service serving counters.

    Latency lives in a fixed-bucket :class:`LatencyHistogram` rather than
    running mean/max scalars: the histogram carries exact sum, count and
    max (so the historical ``mean_latency_ms`` / ``max_latency_ms``
    snapshot keys are still derived losslessly) plus per-bucket counts
    that make p50/p95/p99 derivable and shard-mergeable.
    """

    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)


@dataclass
class ServiceMetrics:
    """Per-service request counts, error counts, cache hits and latency.

    Thread-safe: both HTTP front ends record responses from many handler
    or worker threads into one collector, so every fold and snapshot happens
    under an internal lock (read-modify-write on the counters would
    otherwise lose updates).
    """

    per_service: Dict[str, _ServiceCounters] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, response: ServiceResponse) -> None:
        """Fold one response into the counters.

        Latency is folded for **every** response, error envelopes
        included — a slow failure is precisely the signal the latency
        histogram exists to surface, so the error path must never be
        cheaper in the metrics than it was on the wire.
        """
        with self._lock:
            counters = self.per_service.setdefault(
                response.service, _ServiceCounters()
            )
            counters.requests += 1
            if not response.ok:
                counters.errors += 1
            if response.cache_hit:
                counters.cache_hits += 1
            counters.histogram.observe(response.latency_ms)

    def timed(self, response: ServiceResponse, started: float) -> ServiceResponse:
        """Stamp *response* with the latency since *started* (a
        ``time.perf_counter`` reading) and fold it into the counters."""
        response = dataclasses.replace(
            response, latency_ms=(time.perf_counter() - started) * 1e3
        )
        self.record(response)
        return response

    def snapshot(self) -> Dict[str, float]:
        """Flat metric dict, keyed ``service.<name>.<metric>``.

        Alongside the historical keys (``requests`` / ``errors`` /
        ``cache_hits`` / ``hit_rate`` / ``mean_latency_ms`` /
        ``max_latency_ms``, the latter two now derived from the
        histogram), each service emits ``p50/p95/p99_latency_ms`` and the
        per-bucket ``latency_ms_le.<edge>`` counts that the cluster
        coordinator sums across shards.
        """
        stats: Dict[str, float] = {}
        with self._lock:
            for service, counters in sorted(self.per_service.items()):
                prefix = f"service.{service}"
                stats[f"{prefix}.requests"] = float(counters.requests)
                stats[f"{prefix}.errors"] = float(counters.errors)
                stats[f"{prefix}.cache_hits"] = float(counters.cache_hits)
                stats[f"{prefix}.hit_rate"] = (
                    counters.cache_hits / counters.requests
                    if counters.requests
                    else 0.0
                )
                stats[f"{prefix}.mean_latency_ms"] = counters.histogram.mean_ms
                stats[f"{prefix}.max_latency_ms"] = counters.histogram.max_ms
                counters.histogram.snapshot_into(stats, prefix)
        return stats

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """Structured per-service state for the Prometheus renderer.

        Each entry carries the raw counters plus the **live**
        :class:`LatencyHistogram` (its accessors take their own lock), so
        the ``/metrics`` endpoint renders without copying bucket arrays.
        """
        with self._lock:
            return {
                service: {
                    "requests": float(counters.requests),
                    "errors": float(counters.errors),
                    "cache_hits": float(counters.cache_hits),
                    "histogram": counters.histogram,
                }
                for service, counters in sorted(self.per_service.items())
            }

    def reset(self) -> None:
        """Drop all counters."""
        with self._lock:
            self.per_service.clear()


class MetricsMiddleware:
    """Times every request and feeds a :class:`ServiceMetrics` collector.

    Placed outermost so latency covers the full stack (cache lookups and
    rejections included).
    """

    def __init__(self, metrics: ServiceMetrics) -> None:
        self.metrics = metrics

    def __call__(
        self, request: ServiceRequest, call_next: Handler
    ) -> ServiceResponse:
        """Measure the downstream call and record the outcome."""
        started = time.perf_counter()
        return self.metrics.timed(call_next(request), started)


class ValidationMiddleware:
    """Runs :meth:`ServiceRequest.validate` and converts failures into
    ``invalid_request`` error envelopes before any index is touched."""

    def __call__(
        self, request: ServiceRequest, call_next: Handler
    ) -> ServiceResponse:
        """Validate, then continue down the stack."""
        try:
            with stage("validate"):
                request.validate()
        except ValidationError as error:
            return ServiceResponse.failure(
                request.service, "invalid_request", str(error)
            )
        return call_next(request)


class CacheMiddleware:
    """Serves repeated requests from an :class:`LRUCache` of responses.

    Only successful responses to requests with a non-``None``
    :meth:`~ServiceRequest.cache_key` are stored.  Hits are returned with
    ``cache_hit=True`` (the outer metrics middleware re-stamps latency).
    Payloads are deep-copied on both store and serve so a caller mutating
    its response can never poison the cache or other callers.
    """

    def __init__(self, cache: LRUCache) -> None:
        self.cache = cache

    def __call__(
        self, request: ServiceRequest, call_next: Handler
    ) -> ServiceResponse:
        """Answer from cache when possible; populate it otherwise."""
        key = request.cache_key()
        if key is None:
            return call_next(request)
        with stage("cache_lookup"):
            cached = self.cache.get(key)
        if cached is not None:
            return cached.as_cache_hit()
        response = call_next(request)
        if response.ok:
            self.cache.put(
                key,
                dataclasses.replace(
                    response, payload=copy.deepcopy(response.payload)
                ),
            )
        return response


class RateLimitMiddleware:
    """Token-bucket rate limiter (optional; off unless installed).

    Allows bursts up to *burst* requests and refills at *rate_per_second*.
    Over-limit requests get a ``rate_limited`` error envelope instead of
    queueing — shedding load is the serving-system behaviour.  The clock is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        rate_per_second: float,
        *,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_positive(rate_per_second, "rate_per_second")
        self.rate = float(rate_per_second)
        self.burst = float(burst if burst is not None else max(1, int(rate_per_second)))
        check_positive(self.burst, "burst")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        # Refill-then-spend is a read-modify-write on the bucket; the lock
        # keeps the budget exact when worker threads race through it.
        self._bucket_lock = threading.Lock()

    def __call__(
        self, request: ServiceRequest, call_next: Handler
    ) -> ServiceResponse:
        """Spend a token or reject with ``rate_limited``."""
        with stage("rate_limit"), self._bucket_lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens < 1.0:
                deficit = 1.0 - self._tokens
                return ServiceResponse.failure(
                    request.service,
                    "rate_limited",
                    f"rate limit of {self.rate:g} requests/s exceeded",
                    details={"retry_after_seconds": deficit / self.rate},
                )
            self._tokens -= 1.0
        return call_next(request)
