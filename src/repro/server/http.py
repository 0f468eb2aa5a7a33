"""HTTP wire transport over the typed OCTOPUS service envelopes.

:class:`OctopusHTTPServer` is a threaded stdlib HTTP server (no external
dependencies) that speaks exactly the JSON request/response envelopes of
:mod:`repro.service` — the same bytes ``octopus query`` reads and writes:

============  ======  ====================================================
path          method  body
============  ======  ====================================================
``/query``    POST    one JSON request object → one response envelope
``/batch``    POST    JSON array of requests → JSON array of envelopes
                      (served through ``execute_batch``, so duplicates are
                      shared; per-slot failures stay in their envelope and
                      the HTTP status is 200)
``/stats``    GET     merged service/cache/backend/HTTP counters
``/healthz``  GET     liveness: status, uptime, requests served
``/metrics``  GET     Prometheus text exposition (unauthenticated, inline)
============  ======  ====================================================

Requests are traced end to end (:mod:`repro.obs`): every ``/query`` /
``/batch`` gets a request id — adopted from a well-formed
``X-Request-Id`` header or minted — echoed as a response header and in
the envelope's wall-clock section, an ``X-Debug-Timings: 1`` header opts
into the per-stage ``timings`` breakdown, and requests slower than the
server's ``slow_query_ms`` threshold emit one structured slow-query log
line.  Tracing can be disabled per server (``tracing=False``) or via
``REPRO_TRACE=0``; serving bytes under ``deterministic_form`` are
identical either way.

The dispatcher behind the socket is anything with the service executor
shape — a plain :class:`~repro.service.OctopusService`, computed on the
connection's handler thread, or a :class:`~repro.cluster.ClusterCoordinator`
computing on forked replicas — so the serving semantics (caching, metrics,
validation, batch duplicate sharing) are whatever the chosen executor
already provides; this module adds the wire, not new semantics.

Structured errors map onto HTTP statuses through
:data:`HTTP_STATUS_BY_ERROR_CODE` (client mistakes are 4xx, only genuine
``internal_error`` envelopes are 5xx), and every body — success or failure
— is a parseable envelope, so clients never scrape HTML error pages.

Shutdown is graceful: :meth:`OctopusHTTPServer.shutdown_gracefully` stops
accepting, drains in-flight handler threads, closes the executor (a
coordinator stops its shard processes) and folds the last requests into a
final statistics snapshot — nothing served is ever dropped from the
metrics.
"""

from __future__ import annotations

import json
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional, Union
from urllib.parse import urlsplit

from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import (
    RequestTrace,
    clean_request_id,
    default_slow_query_ms,
    maybe_log_slow,
    stamp_response,
    trace_context,
    tracing_enabled_default,
)
from repro.server.wire import (
    HTTP_STATUS_BY_ERROR_CODE,
    HTTPCounters,
    batch_body_text,
    bearer_token_matches,
    decode_body,
    health_body,
    metrics_exposition,
    parse_batch,
    parse_content_length,
    retry_after_header_value,
    retry_after_hint,
    route_error_envelope,
    status_for_response,
    unauthorized_envelope,
)
from repro.service.dispatcher import OctopusService
from repro.service.responses import ServiceResponse, jsonify

if TYPE_CHECKING:  # the cluster imports the service layer, not the server
    from repro.cluster.coordinator import ClusterCoordinator

__all__ = [
    "HTTP_STATUS_BY_ERROR_CODE",
    "OctopusHTTPServer",
    "serve_in_background",
    "status_for_response",
]

ServiceExecutor = Union[OctopusService, "ClusterCoordinator"]

# The protocol tables and envelope builders live in the transport-neutral
# :mod:`repro.server.wire` (shared with the asyncio gateway); this module
# keeps the threaded transport only.
_HTTPCounters = HTTPCounters  # back-compat alias for external imports


class _OctopusRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's service executor."""

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections

    # Headers and body go out as separate writes; with Nagle enabled the
    # second write stalls behind the peer's delayed ACK (~40 ms per
    # response on loopback).  TCP_NODELAY sends both immediately.
    disable_nagle_algorithm = True

    # Mypy-friendly narrowing: the ThreadingHTTPServer we run under.
    server: "OctopusHTTPServer"

    # Per-request tracing state, reset at the top of every do_* so a
    # keep-alive connection can never leak one request's trace (or start
    # time) into the next exchange on the same handler instance.
    _active_trace: Optional[RequestTrace] = None
    _request_started: Optional[float] = None

    def setup(self) -> None:
        # Bound every socket read so an idle keep-alive connection cannot
        # pin a handler thread forever (the graceful drain joins them).
        self.timeout = self.server.request_timeout
        super().setup()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server's casing
        self._request_started = time.perf_counter()
        self._active_trace = None
        path = urlsplit(self.path).path
        if path == "/healthz":
            # Liveness stays open even behind auth: probes and load
            # balancers must not need the shared secret to see "alive".
            self._send_json(200, self.server.health())
        elif path == "/metrics":
            # The scrape endpoint mirrors /healthz: unauthenticated and
            # answered inline from in-process counters, so it stays green
            # under saturation and a scraper never needs the shared secret.
            self._send_json(
                200,
                self.server.metrics_exposition(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        elif not self._authorized():
            pass  # 401 envelope already sent
        elif path == "/stats":
            self._send_json(200, jsonify(self.server.stats()))
        else:
            if self.headers.get("Content-Length"):
                # An unconsumed body would be parsed as the next request
                # line on this keep-alive connection; don't reuse it.
                self.close_connection = True
            self._send_envelope(self._route_error(path, ("/query", "/batch")))

    def do_POST(self) -> None:  # noqa: N802 — http.server's casing
        self._request_started = time.perf_counter()
        self._active_trace = self._begin_trace()
        path = urlsplit(self.path).path
        if not self._authorized():
            return  # 401 envelope already sent
        if path == "/query":
            self._handle_query()
        elif path == "/batch":
            self._handle_batch()
        else:
            # The POST body is never read on this path; close so its
            # bytes cannot poison the next keep-alive request.
            self.close_connection = True
            self._send_envelope(
                self._route_error(path, ("/stats", "/healthz", "/metrics"))
            )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _begin_trace(self) -> Optional[RequestTrace]:
        """A fresh request trace, or ``None`` with tracing disabled.

        Adopts a well-formed ``X-Request-Id`` header (anything unsafe to
        echo is discarded and a fresh id minted); ``X-Debug-Timings``
        opts the response into the per-stage ``timings`` breakdown.
        """
        if not self.server.tracing:
            return None
        request_id = clean_request_id(self.headers.get("X-Request-Id"))
        debug = self.headers.get("X-Debug-Timings", "").strip().lower() in (
            "1",
            "true",
            "yes",
            "on",
        )
        return RequestTrace(request_id, debug=debug)

    def _handle_query(self) -> None:
        """One JSON request in, one envelope out; the dispatcher does the
        coercion so malformed bodies become ``malformed_request`` envelopes."""
        body = self._read_body()
        if body is None:
            return
        with trace_context(self._active_trace):
            response = self.server.service.execute(body)
        self._send_envelope(response)

    def _handle_batch(self) -> None:
        """A JSON array in, an array of envelopes out (HTTP 200 even when
        individual slots failed — per-slot status lives in each envelope)."""
        body = self._read_body()
        if body is None:
            return
        entries, error = parse_batch(body)
        if error is not None:
            self._send_envelope(error)
            return
        trace = self._active_trace
        with trace_context(trace):
            responses = self.server.service.execute_batch(entries)
        if trace is not None:
            responses = [stamp_response(item, trace) for item in responses]
            maybe_log_slow(
                trace,
                service="batch",
                latency_ms=trace.elapsed_ms(),
                threshold_ms=self.server.slow_query_ms,
            )
        self._send_json(200, batch_body_text(responses))

    def _authorized(self) -> bool:
        """Shared-secret check: ``Authorization: Bearer <token>``.

        Only enforced when the server was given an ``auth_token``.  A
        missing or wrong token gets a structured 401 envelope (code
        ``unauthorized``) — parseable like every other body — and the
        connection is closed, since any request body stays unread.
        """
        token = self.server.auth_token
        if token is None:
            return True
        if bearer_token_matches(self.headers.get("Authorization", ""), token):
            return True
        self.close_connection = True  # the body (if any) is never drained
        self._send_envelope(unauthorized_envelope())
        return False

    @staticmethod
    def _route_error(path: str, hint_paths: tuple) -> ServiceResponse:
        """404 for unknown paths, 405 for a known path with the wrong verb."""
        return route_error_envelope(path, hint_paths)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_body(self) -> Optional[str]:
        """The request body as text, or ``None`` after sending an error.

        A missing Content-Length or an oversized declared size drops the
        connection: the unread (or unbuffered) body would otherwise poison
        the next keep-alive request on it.
        """
        length, error = parse_content_length(
            self.headers.get("Content-Length"), self.server.max_body_bytes
        )
        if error is not None:
            self.close_connection = True
            self._send_envelope(error)
            return None
        raw = self.rfile.read(length)
        text, error = decode_body(raw)
        if error is not None:
            self._send_envelope(error)
            return None
        return text

    def _send_envelope(self, response: ServiceResponse) -> None:
        """Send one envelope with its mapped HTTP status.

        Rate-limit envelopes carry their refill deficit as a
        ``Retry-After`` header (ceil'd — see
        :func:`~repro.server.wire.retry_after_header_value`), so clients
        opted into retries sleep long enough instead of burning an
        attempt on a guaranteed second 429.

        With a trace active the envelope (error envelopes included) is
        stamped with the request id — and debug timings when requested —
        and a request over the slow-query threshold logs one structured
        line before the bytes go out.
        """
        trace = self._active_trace
        if trace is not None:
            response = stamp_response(response, trace)
            maybe_log_slow(
                trace,
                service=response.service,
                latency_ms=trace.elapsed_ms(),
                threshold_ms=self.server.slow_query_ms,
            )
        hint = retry_after_hint(response)
        extra_headers = (
            {"Retry-After": retry_after_header_value(hint)}
            if hint is not None
            else None
        )
        self._send_json(
            status_for_response(response),
            response.to_json(),
            extra_headers=extra_headers,
        )

    def _send_json(
        self,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        """Send *payload* (JSON text or a JSON-able object) with *status*."""
        if not isinstance(payload, str):
            payload = json.dumps(payload, sort_keys=True)
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._active_trace is not None:
            self.send_header("X-Request-Id", self._active_trace.request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.server.draining:
            # Ask clients off persistent connections so the drain finishes
            # without waiting out idle keep-alive timeouts.
            self.close_connection = True
        if self.close_connection:
            # Announce the close (set above, or by an error path that left
            # the body unread) so well-behaved clients reconnect instead
            # of tripping over an unexpected disconnect.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        started = self._request_started
        self.server.http_counters.record(
            urlsplit(self.path).path,
            status,
            duration_ms=(time.perf_counter() - started) * 1e3
            if started is not None
            else None,
        )

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; flip ``server.verbose`` for stderr access logs."""
        if self.server.verbose:
            super().log_message(format, *args)


class OctopusHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server over an OCTOPUS service executor.

    Each connection is handled on its own thread; the executor underneath
    decides how requests are actually scheduled (a serial dispatcher
    computes on the handler thread, a coordinator hands off to a forked
    replica).  ``port=0`` binds an ephemeral port — the test harness's
    way of running many servers without collisions; the bound address is
    on :attr:`url`.
    """

    # Drain semantics: handler threads are tracked (non-daemon) and joined
    # by ``server_close()``, so close == every in-flight request finished.
    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        service: ServiceExecutor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: float = 10.0,
        max_body_bytes: int = 8 * 1024 * 1024,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl.SSLContext] = None,
        verbose: bool = False,
        tracing: Optional[bool] = None,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self.service = service
        self.request_timeout = float(request_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.verbose = verbose
        # Tracing defaults from the environment (REPRO_TRACE /
        # REPRO_SLOW_QUERY_MS) unless the caller pins them explicitly.
        self.tracing = (
            tracing_enabled_default() if tracing is None else bool(tracing)
        )
        self.slow_query_ms = (
            default_slow_query_ms()
            if slow_query_ms is None
            else float(slow_query_ms)
        )
        self.draining = False
        self.http_counters = HTTPCounters()
        self.final_stats: Optional[Dict[str, Any]] = None
        self._started_at = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self._accept_loop_entered = threading.Event()
        # Serializes the loop-started / drain-started decision so a drain
        # racing a background serve thread can never leave the loop
        # running (or starting) against a closed socket.
        self._lifecycle_lock = threading.Lock()
        # Serializes whole shutdowns: concurrent callers drain once and
        # all receive the same final snapshot.
        self._shutdown_lock = threading.Lock()
        super().__init__((host, port), _OctopusRequestHandler)
        if ssl_context is not None:
            # Wrap the *listening* socket so every accepted connection is
            # TLS.  The handshake is deferred (do_handshake_on_connect
            # False) to the handler thread's first read — a slow or bogus
            # client then stalls only its own handler (bounded by the
            # request timeout), never the accept loop.
            self.socket = ssl_context.wrap_socket(
                self.socket, server_side=True, do_handshake_on_connect=False
            )

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """The accept loop; tracked so a graceful shutdown knows whether
        ``BaseServer.shutdown`` has a loop to signal (calling it when the
        loop never ran would wait forever on the is-shut-down event).

        A drain that already began wins the race against a background
        serve thread still starting up: the loop then never runs against
        the closed socket.
        """
        with self._lifecycle_lock:
            if self.draining:
                return
            self._accept_loop_entered.set()
        super().serve_forever(poll_interval)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the bound socket (ephemeral port resolved)."""
        host, port = self.server_address[:2]
        scheme = "https" if self.ssl_context is not None else "http"
        return f"{scheme}://{host}:{port}"

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body (:func:`repro.server.wire.health_body`)."""
        return health_body(
            self.service, self.http_counters, self.draining, self._started_at
        )

    def stats(self) -> Dict[str, Any]:
        """Service + backend + HTTP counters in one flat dict (floats plus
        the executor/backend identity strings)."""
        stats = dict(self.service.stats())
        stats.update(self.http_counters.snapshot())
        return stats

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body
        (:func:`repro.server.wire.metrics_exposition`)."""
        return metrics_exposition(
            self.service, self.http_counters, self._started_at
        )

    def handle_error(self, request: Any, client_address: Any) -> None:
        """Keep client disconnects quiet; defer to the base otherwise.

        A client dropping its socket mid-response (or an idle keep-alive
        connection timing out, or a plaintext client babbling at a TLS
        port) is normal serving weather, not a stack trace.
        """
        exc_type = sys.exc_info()[0]
        if exc_type is not None and issubclass(
            exc_type, (ConnectionError, TimeoutError, ssl.SSLError)
        ):
            return
        if self.verbose:
            super().handle_error(request, client_address)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown_gracefully(self) -> Dict[str, Any]:
        """Stop accepting, drain in-flight requests, close the executor.

        Safe to call from any thread (including after ``serve_forever``
        was interrupted) and idempotent.  Returns the final statistics
        snapshot — taken *after* the drain, so every served request is in
        the counters — which is also kept on :attr:`final_stats`.
        """
        with self._shutdown_lock:
            if self.final_stats is not None:
                return self.final_stats
            with self._lifecycle_lock:
                self.draining = True
                loop_started = self._accept_loop_entered.is_set()
            if loop_started:
                self.shutdown()  # stop the accept loop
            self.server_close()  # joins every in-flight handler thread
            if self._serve_thread is not None and self._serve_thread.is_alive():
                self._serve_thread.join(timeout=self.request_timeout)
            stats = self.stats()  # snapshot before the pool goes away
            close = getattr(self.service, "close", None)
            if callable(close):
                close()  # stop the coordinator's shard processes
            self.final_stats = stats
            return stats


def serve_in_background(
    service: ServiceExecutor,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs: Any,
) -> OctopusHTTPServer:
    """Boot a server on its own thread and return it once it accepts.

    The pattern tests, benchmarks and examples share: bind (ephemeral port
    by default), start ``serve_forever`` on a daemon thread, hand back the
    server so the caller can read :attr:`~OctopusHTTPServer.url` and later
    :meth:`~OctopusHTTPServer.shutdown_gracefully`.
    """
    server = OctopusHTTPServer(service, host, port, **server_kwargs)
    thread = threading.Thread(
        target=server.serve_forever, name="octopus-http", daemon=True
    )
    thread.start()
    server._serve_thread = thread
    # Hand the server back only once the accept loop is committed, so an
    # immediate shutdown_gracefully() signals a loop that really exists.
    server._accept_loop_entered.wait(timeout=5.0)
    return server
