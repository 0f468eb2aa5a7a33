"""Transport-neutral pieces of the OCTOPUS HTTP wire protocol.

Two front ends serve the JSON envelopes today — the threaded stdlib
server (:mod:`repro.server.http`) and the asyncio gateway
(:mod:`repro.gateway.http`) — and both must speak *exactly* the same
protocol: the same error-code → status mapping, the same structured
envelopes for transport-level failures (bad Content-Length, oversized
bodies, non-UTF-8 payloads, unknown paths, wrong verbs, bad bearer
tokens), and the same ``http.*`` counters.  This module is that shared
contract, written once with no dependency on either transport: every
helper takes plain values (header strings, byte bodies, paths) and
returns either a parsed value or a ready-to-send
:class:`~repro.service.responses.ServiceResponse` — never an exception.

The rule that makes the wire debuggable holds everywhere: **every body is
a parseable envelope**, success or failure, so clients never scrape HTML
error pages, and a load balancer can tell "you sent garbage" (4xx) from
"shed for capacity" (429) from "the server broke" (500) by status class
alone.
"""

from __future__ import annotations

import hmac
import json
import math
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.histogram import LatencyHistogram
from repro.obs.prometheus import render_exposition
from repro.propagation.native import use_compiled
from repro.service.responses import ServiceResponse

__all__ = [
    "HTTP_STATUS_BY_ERROR_CODE",
    "KNOWN_PATHS",
    "HTTPCounters",
    "health_body",
    "metrics_exposition",
    "status_for_response",
    "bearer_token_matches",
    "unauthorized_envelope",
    "route_error_envelope",
    "parse_content_length",
    "decode_body",
    "parse_batch",
    "batch_body_text",
    "retry_after_header_value",
    "retry_after_hint",
]

#: Structured error code → HTTP status.  Client mistakes are 4xx so a
#: load balancer or the stress harness can tell "you sent garbage" from
#: "the server broke"; only ``internal_error`` (and codes this table does
#: not know, conservatively) surface as 5xx.
HTTP_STATUS_BY_ERROR_CODE: Dict[str, int] = {
    "malformed_request": 400,
    "unauthorized": 401,
    "invalid_request": 400,
    "unknown_service": 400,
    "payload_too_large": 413,
    "rate_limited": 429,
    "not_found": 404,
    "method_not_allowed": 405,
    "internal_error": 500,
}

#: The paths the servers actually serve; anything else is bucketed under
#: one ``http.path.other`` counter so a URL scanner cannot grow the
#: per-path stats dict without bound.
KNOWN_PATHS = ("/query", "/batch", "/stats", "/healthz", "/metrics")


def status_for_response(response: ServiceResponse) -> int:
    """The HTTP status carrying *response*: 200 on success, mapped 4xx/5xx
    via :data:`HTTP_STATUS_BY_ERROR_CODE` on failure (unknown codes are
    conservatively 500)."""
    if response.ok:
        return 200
    assert response.error is not None
    return HTTP_STATUS_BY_ERROR_CODE.get(response.error.code, 500)


def retry_after_header_value(seconds: float) -> str:
    """``Retry-After`` delta-seconds for *seconds*, as header text.

    Rounds **up** to an integral second (and never below 1): the rate
    limiter reports fractional deficits, and a truncated value would let
    a client with ``retries=N`` legally retry before the bucket refills —
    burning a retry attempt on a guaranteed second 429.
    """
    return str(max(1, int(math.ceil(float(seconds)))))


def retry_after_hint(response: ServiceResponse) -> Optional[float]:
    """The ``retry_after_seconds`` hint in a rate-limit envelope, if any.

    Both front ends use this to decide whether a 429 response carries a
    ``Retry-After`` header (via :func:`retry_after_header_value`).
    """
    if response.ok or response.error is None:
        return None
    if response.error.code != "rate_limited":
        return None
    value = response.error.details.get("retry_after_seconds")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


class HTTPCounters:
    """Thread-safe request/response counters for the ``http.*`` stats.

    Shared by both front ends so ops dashboards read the same keys
    whichever transport served the traffic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_path: Dict[str, int] = {}
        self._by_status_class: Dict[str, int] = {}
        self._total = 0
        self.latency = LatencyHistogram()

    def record(
        self, path: str, status: int, duration_ms: Optional[float] = None
    ) -> None:
        """Fold one served HTTP exchange into the counters.

        *duration_ms*, when the front end measured it, feeds the overall
        HTTP latency histogram (the histogram has its own lock, so the
        observation happens outside this collector's).
        """
        if path not in KNOWN_PATHS:
            path = "other"  # bound the per-path dict against URL scanners
        bucket = f"{status // 100}xx"
        with self._lock:
            self._total += 1
            self._by_path[path] = self._by_path.get(path, 0) + 1
            self._by_status_class[bucket] = (
                self._by_status_class.get(bucket, 0) + 1
            )
        if duration_ms is not None:
            self.latency.observe(duration_ms)

    @property
    def total(self) -> int:
        """Requests recorded so far."""
        with self._lock:
            return self._total

    def snapshot(self) -> Dict[str, float]:
        """Flat counter dict keyed ``http.<metric>``.

        The historical keys are unchanged; when the latency histogram has
        observations it additionally contributes ``http.p50_latency_ms``
        (p95/p99 likewise) and the per-bucket ``http.latency_ms_le.*``
        counts.
        """
        with self._lock:
            stats: Dict[str, float] = {"http.requests": float(self._total)}
            for path, count in sorted(self._by_path.items()):
                stats[f"http.path.{path.lstrip('/') or 'root'}"] = float(count)
            for bucket, count in sorted(self._by_status_class.items()):
                stats[f"http.responses.{bucket}"] = float(count)
        if self.latency.count:
            self.latency.snapshot_into(stats, "http")
        return stats

    def export_state(self) -> Dict[str, Any]:
        """Structured state for the Prometheus renderer.

        Counts are copied; the latency histogram is handed over live (its
        accessors take their own lock).
        """
        with self._lock:
            return {
                "total": float(self._total),
                "by_path": {
                    path: float(count)
                    for path, count in sorted(self._by_path.items())
                },
                "by_status_class": {
                    bucket: float(count)
                    for bucket, count in sorted(self._by_status_class.items())
                },
                "histogram": self.latency,
            }


def health_body(
    executor: Any, counters: HTTPCounters, draining: bool, started_at: float
) -> Dict[str, Any]:
    """The ``/healthz`` body: liveness, uptime and request count.

    *started_at* is the front end's ``time.monotonic()`` boot reading.
    When the executor exposes its own ``health()`` (the cluster
    coordinator's per-shard liveness), the details are merged in and a
    degraded executor flips ``status`` to ``"degraded"`` — load balancers
    see a sharded deployment losing shards without parsing executor
    internals.
    """
    payload: Dict[str, Any] = {
        "status": "draining" if draining else "ok",
        "uptime_seconds": round(time.monotonic() - started_at, 3),
        "requests_served": float(counters.total),
        "executor": type(executor).__name__,
    }
    describe = getattr(executor, "health", None)
    if callable(describe):
        details = describe()
        payload["cluster"] = details
        if details.get("degraded") and not draining:
            payload["status"] = "degraded"
    return payload


def metrics_exposition(
    executor: Any, counters: HTTPCounters, started_at: float
) -> str:
    """The ``GET /metrics`` body (Prometheus text format 0.0.4).

    Rendered from in-process state only — the executor's
    ``ServiceMetrics`` and the front end's HTTP counters — never from
    ``stats()``, which on a cluster executor pings every shard; a scrape
    must stay cheap and green under saturation.
    ``execution.rr_kernel_compiled`` is 1 when RR sets are sampled on the
    compiled core and 0 on the NumPy path (``execution.rr_kernel`` in
    ``/stats``).
    """
    metrics = getattr(executor, "metrics", None)
    extra = {
        "uptime_seconds": round(time.monotonic() - started_at, 3),
        "execution.rr_kernel_compiled": float(use_compiled()),
    }
    return render_exposition(
        service_state=metrics.export_state() if metrics is not None else None,
        http_state=counters.export_state(),
        extra=extra,
    )


# ----------------------------------------------------------------------
# Authentication
# ----------------------------------------------------------------------


def bearer_token_matches(header: Optional[str], token: str) -> bool:
    """Constant-time check of an ``Authorization: Bearer`` header.

    Compares as bytes: ``compare_digest`` raises ``TypeError`` on
    non-ASCII str input, and header bytes arrive latin-1-decoded — a
    garbage token must yield a 401 envelope, not a handler crash.
    """
    if not header or not header.startswith("Bearer "):
        return False
    return hmac.compare_digest(
        header[len("Bearer "):].encode("utf-8", "surrogateescape"),
        token.encode("utf-8"),
    )


def unauthorized_envelope() -> ServiceResponse:
    """The structured 401 body for a missing or wrong bearer token."""
    return ServiceResponse.failure(
        "http",
        "unauthorized",
        "missing or invalid bearer token; send "
        "'Authorization: Bearer <token>'",
    )


# ----------------------------------------------------------------------
# Routing errors
# ----------------------------------------------------------------------


def route_error_envelope(path: str, hint_paths: Tuple[str, ...]) -> ServiceResponse:
    """404 for unknown paths, 405 for a known path with the wrong verb.

    *hint_paths* are the paths that exist but take the other verb — a
    request for one of them is a method error, not a missing resource.
    """
    if path in hint_paths:
        return ServiceResponse.failure(
            "http",
            "method_not_allowed",
            f"wrong method for {path}; see GET /healthz, GET /metrics, "
            f"GET /stats, POST /query, POST /batch",
        )
    return ServiceResponse.failure(
        "http",
        "not_found",
        f"unknown path {path!r}; endpoints are GET /healthz, "
        f"GET /metrics, GET /stats, POST /query, POST /batch",
    )


# ----------------------------------------------------------------------
# Body handling
# ----------------------------------------------------------------------


def parse_content_length(
    header: Optional[str], max_body_bytes: int
) -> Tuple[Optional[int], Optional[ServiceResponse]]:
    """Validate a ``Content-Length`` header → ``(length, error_envelope)``.

    Exactly one side of the pair is set.  A missing or malformed header is
    ``malformed_request`` (without a length the body cannot be drained, so
    the connection must not be reused); a declared size beyond
    *max_body_bytes* is ``payload_too_large`` (the body is never buffered).
    """
    try:
        length = int(header)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None, ServiceResponse.failure(
            "http",
            "malformed_request",
            "POST requires a Content-Length header",
        )
    if length > max_body_bytes:
        return None, ServiceResponse.failure(
            "http",
            "payload_too_large",
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    return max(0, length), None


def decode_body(raw: bytes) -> Tuple[Optional[str], Optional[ServiceResponse]]:
    """Decode a request body → ``(text, error_envelope)``; UTF-8 only."""
    try:
        return raw.decode("utf-8"), None
    except UnicodeDecodeError as error:
        return None, ServiceResponse.failure(
            "http", "malformed_request", f"body is not UTF-8: {error}"
        )


def parse_batch(
    body: str,
) -> Tuple[Optional[List[Any]], Optional[ServiceResponse]]:
    """Parse a ``/batch`` body → ``(entries, error_envelope)``.

    The body must be a JSON array; anything else is one
    ``malformed_request`` envelope for the whole batch (per-slot failures
    are the executor's business, not the transport's).
    """
    try:
        entries = json.loads(body)
    except json.JSONDecodeError as error:
        return None, ServiceResponse.failure(
            "batch", "malformed_request", f"batch is not valid JSON: {error}"
        )
    if not isinstance(entries, list):
        return None, ServiceResponse.failure(
            "batch",
            "malformed_request",
            f"batch must be a JSON array, got {type(entries).__name__}",
        )
    return entries, None


def batch_body_text(responses: List[ServiceResponse]) -> str:
    """The canonical JSON text of a batch response array."""
    return json.dumps(
        [response.to_dict() for response in responses], sort_keys=True
    )
