"""Asyncio-native HTTP front end for the OCTOPUS service envelopes.

:class:`OctopusAsyncGateway` is the serving front door built for **many
connections**: where the threaded server (:mod:`repro.server.http`)
spends one OS thread per connection — dead weight for every idle
keep-alive socket — the gateway parks thousands of connections on one
event loop and spends threads only on *compute*, handing each admitted
request to the configured service executor through
``loop.run_in_executor`` over a bounded dispatch queue.

The wire protocol is byte-identical to the threaded server's — the same
endpoints (``POST /query``, ``POST /batch``, ``GET /stats``,
``GET /healthz``), the same envelopes, the same error→status mapping from
:mod:`repro.server.wire`, and the same
:func:`~repro.service.responses.deterministic_form` bytes for any query —
which is what lets the golden replay suites prove the transport swap safe.
On top of the transport the gateway adds the production-traffic controls
the threaded stack lacks:

* **admission control** — a bounded two-lane queue
  (:class:`~repro.gateway.admission.AdmissionQueue`); when a lane is full
  new requests are shed *immediately* with a structured 429 envelope and
  a ``Retry-After`` header, never buffered without bound;
* **priority lanes** — cheap queries (stats, suggest, complete, radar,
  paths) dispatch ahead of heavy ones (influence maximization, large
  batches), and heavy concurrency is capped below the worker count, so a
  burst of heavy queries cannot starve interactive traffic;
* **per-tenant rate limits** — token buckets keyed by the bearer auth
  token (:class:`~repro.gateway.limits.TenantRateLimiter`);
* **slow-client timeouts** — every socket read and write is bounded;
  stuck peers are disconnected and counted, never leaked.

``GET /healthz`` is answered inline on the event loop — it never touches
the admission queue, so liveness probes keep answering while the queue
sheds everything else.  ``GET /metrics`` (the Prometheus text scrape)
gets the same treatment: rendered inline from in-process counters, never
queued, never authed, so scrapes stay green under saturation.

Requests are traced end to end exactly like the threaded server's
(:mod:`repro.obs`): every ``POST`` gets a request id — adopted from a
well-formed ``X-Request-Id`` header or minted — echoed as a response
header and in the envelope's wall-clock section; the admission-queue
wait is recorded as a ``queue_wait`` stage; ``X-Debug-Timings: 1`` opts
into the per-stage ``timings`` breakdown; slow requests emit one
structured slow-query log line.  ``deterministic_form`` bytes are
identical with tracing on or off.

The gateway runs its event loop on a dedicated background thread and
exposes the same synchronous lifecycle as the threaded server
(:meth:`start` / :attr:`url` / :meth:`stats` / :meth:`health` /
:meth:`shutdown_gracefully`), so tests, benchmarks and the CLI drive
either front end through one surface.
"""

from __future__ import annotations

import asyncio
import json
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import responses as _REASON_PHRASES
from typing import Any, Callable, Dict, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro.gateway.admission import (
    LANE_CHEAP,
    LANE_HEAVY,
    AdmissionQueue,
    lane_for_batch,
    lane_for_service,
    shed_envelope,
)
from repro.gateway.limits import ANONYMOUS_TENANT, TenantRateLimiter
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
    HTTPCounters,
    batch_body_text,
    bearer_token_matches,
    decode_body,
    health_body,
    metrics_exposition,
    parse_batch,
    parse_content_length,
    retry_after_header_value,
    route_error_envelope,
    status_for_response,
    unauthorized_envelope,
)
from repro.service.middleware import Counters
from repro.service.responses import ServiceResponse, jsonify
from repro.utils.validation import check_positive

__all__ = ["GatewayConfig", "OctopusAsyncGateway", "start_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of the asyncio gateway (all bounds, no behaviour).

    ``queue_depth`` bounds each admission lane; ``workers`` sizes both the
    dispatch slots and the compute thread pool; ``heavy_slots`` caps
    concurrent heavy queries (default: all but one worker, so cheap
    traffic always has a slot).  ``read_timeout`` / ``write_timeout``
    bound every socket interaction with a client; ``dispatch_timeout``
    bounds the whole queue-wait-plus-compute of one admitted request.
    ``tenant_rate`` (requests/second, with burst ``tenant_burst``) turns
    on per-tenant token buckets keyed by bearer token.  Bodies larger than
    ``inline_parse_bytes`` are classified heavy and parsed on a worker
    thread so the event loop never runs a large ``json.loads``.
    """

    queue_depth: int = 64
    workers: int = 4
    heavy_slots: Optional[int] = None
    fairness: int = 8
    heavy_batch_size: int = 16
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[int] = None
    read_timeout: float = 10.0
    write_timeout: float = 10.0
    dispatch_timeout: float = 300.0
    drain_timeout: float = 30.0
    retry_after_seconds: float = 1.0
    max_body_bytes: int = 8 * 1024 * 1024
    inline_parse_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        """Validate every bound at construction, not first use."""
        check_positive(self.queue_depth, "queue_depth")
        check_positive(self.workers, "workers")
        check_positive(self.heavy_batch_size, "heavy_batch_size")
        check_positive(self.read_timeout, "read_timeout")
        check_positive(self.write_timeout, "write_timeout")
        check_positive(self.dispatch_timeout, "dispatch_timeout")
        check_positive(self.drain_timeout, "drain_timeout")
        check_positive(self.retry_after_seconds, "retry_after_seconds")
        check_positive(self.max_body_bytes, "max_body_bytes")
        if self.tenant_rate is not None:
            check_positive(self.tenant_rate, "tenant_rate")


class _Request:
    """One parsed HTTP request head (body is read separately).

    ``started`` is the loop-clock instant the request line was read;
    the response writer turns it into the exchange's ``duration_ms``
    for the HTTP latency histogram.
    """

    __slots__ = ("method", "path", "version", "headers", "started")

    def __init__(
        self,
        method: str,
        path: str,
        version: str,
        headers: Dict[str, str],
        started: Optional[float] = None,
    ) -> None:
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.started = started


class _Job:
    """One admitted unit of compute: runs ``fn`` on the pool, resolves
    ``future`` with ``(status, body_text)``.

    ``trace`` is the request's :class:`~repro.obs.trace.RequestTrace`
    (or ``None`` untraced): context variables do not cross the
    ``run_in_executor`` hop, so the trace rides the job object and the
    compute closure re-activates it on the pool thread.
    """

    __slots__ = ("lane", "fn", "future", "enqueued", "trace")

    def __init__(
        self,
        lane: str,
        fn: Callable[[], Tuple[int, str]],
        future: "asyncio.Future[Tuple[int, str]]",
        enqueued: float,
        trace: Optional[RequestTrace] = None,
    ) -> None:
        self.lane = lane
        self.fn = fn
        self.future = future
        self.enqueued = enqueued
        self.trace = trace


#: Maximum header lines per request — beyond this the peer is babbling.
_MAX_HEADERS = 100
#: StreamReader line limit (also bounds a single header line).
_STREAM_LIMIT = 64 * 1024
#: Bound on the shutdown wait for cancelled connection handlers (seconds).
_HANDLER_DRAIN_SECONDS = 5.0


def _retry_after_header(seconds: float) -> str:
    """``Retry-After`` delta-seconds (integral, at least 1, rounded up —
    shared with the threaded front end via :mod:`repro.server.wire` so
    both ceil identically and clients never retry early)."""
    return retry_after_header_value(seconds)


class OctopusAsyncGateway:
    """Asyncio serving gateway over an OCTOPUS service executor.

    Accepts any executor with the service surface — an
    :class:`~repro.service.OctopusService`, called from the gateway's
    worker pool, or a :class:`~repro.cluster.ClusterCoordinator` over
    forked replicas — and serves it with admission control, priority
    lanes, per-tenant limits and slow-client timeouts (see the module
    docstring).  ``port=0`` binds an ephemeral
    port; the bound address is on :attr:`url` after :meth:`start`.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[GatewayConfig] = None,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl.SSLContext] = None,
        verbose: bool = False,
        tracing: Optional[bool] = None,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.config = config or GatewayConfig()
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
        self.gateway_counters = Counters(prefix="gateway.")
        self.final_stats: Optional[Dict[str, Any]] = None
        self._queue = AdmissionQueue(
            capacity=self.config.queue_depth,
            workers=self.config.workers,
            heavy_slots=self.config.heavy_slots,
            fairness=self.config.fairness,
        )
        self._tenants: Optional[TenantRateLimiter] = (
            TenantRateLimiter(
                self.config.tenant_rate, burst=self.config.tenant_burst
            )
            if self.config.tenant_rate is not None
            else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="octopus-gateway-compute",
        )
        self._started_at = time.monotonic()
        self._bound_address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_done = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        # Loop-confined state (created inside the loop thread):
        self._stop_requested: Optional[asyncio.Event] = None
        self._work_available: Optional[asyncio.Condition] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._connection_tasks: Set["asyncio.Task[None]"] = set()
        self._workers_stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "OctopusAsyncGateway":
        """Boot the event loop thread and return once the socket accepts.

        Raises the bind error (port in use, bad TLS material) in the
        calling thread, not on a background stack.
        """
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="octopus-gateway", daemon=True
        )
        self._thread.start()
        if not self._startup_done.wait(timeout=15.0):
            raise RuntimeError("gateway event loop failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Block the calling thread until the gateway is shut down.

        The CLI's foreground mode: ``start()`` + wait.  Ctrl-C raises
        ``KeyboardInterrupt`` here; the caller then runs
        :meth:`shutdown_gracefully`.
        """
        self.start()
        while not self._stopped.wait(timeout=0.5):
            pass

    def shutdown_gracefully(self) -> Dict[str, Any]:
        """Stop accepting, drain admitted work, close the executor.

        Safe from any thread and idempotent; returns the final statistics
        snapshot (kept on :attr:`final_stats`), taken after the drain so
        every served request is counted.
        """
        with self._shutdown_lock:
            if self.final_stats is not None:
                return self.final_stats
            loop = self._loop
            if loop is not None and not loop.is_closed() and not self._stopped.is_set():
                event = self._stop_requested

                def _signal() -> None:
                    assert event is not None
                    event.set()

                try:
                    loop.call_soon_threadsafe(_signal)
                except RuntimeError:  # loop already closed under us
                    pass
                self._stopped.wait(
                    timeout=self.config.drain_timeout + self.config.read_timeout
                )
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            stats = self.stats()  # snapshot before the pool goes away
            self._pool.shutdown(wait=True)
            close = getattr(self.service, "close", None)
            if callable(close):
                close()
            self.final_stats = stats
            return stats

    def __enter__(self) -> "OctopusAsyncGateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown_gracefully()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the bound socket (ephemeral port resolved)."""
        if self._bound_address is None:
            raise RuntimeError("gateway is not started")
        host, port = self._bound_address
        scheme = "https" if self.ssl_context is not None else "http"
        return f"{scheme}://{host}:{port}"

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body (:func:`repro.server.wire.health_body`)
        plus the gateway's lane depths, so an overloaded-but-alive
        gateway is distinguishable from a healthy idle one."""
        payload = health_body(
            self.service, self.http_counters, self.draining, self._started_at
        )
        payload["frontend"] = "asyncio"
        payload["lanes"] = self._queue.snapshot()
        return payload

    def stats(self) -> Dict[str, Any]:
        """Service + HTTP + gateway counters in one flat dict."""
        stats = dict(self.service.stats())
        stats.update(self.http_counters.snapshot())
        stats.update(self.gateway_counters.snapshot())
        for key, value in self._queue.snapshot().items():
            stats[f"gateway.{key}"] = value
        if self._tenants is not None:
            stats["gateway.tenants.tracked"] = float(
                self._tenants.tracked_tenants()
            )
        return stats

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body
        (:func:`repro.server.wire.metrics_exposition`); in-process state
        only, so it answers inline on the event loop."""
        return metrics_exposition(
            self.service, self.http_counters, self._started_at
        )

    # ------------------------------------------------------------------
    # Event loop thread
    # ------------------------------------------------------------------

    def _thread_main(self) -> None:
        """Own the event loop for the gateway's whole life."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            if not self._startup_done.is_set():
                self._startup_error = error
        finally:
            loop.close()
            self._startup_done.set()
            self._stopped.set()

    async def _main(self) -> None:
        """Bind, serve, and — once shutdown is requested — drain."""
        self._stop_requested = asyncio.Event()
        self._work_available = asyncio.Condition()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.port,
                ssl=self.ssl_context,
                limit=_STREAM_LIMIT,
            )
        except OSError as error:
            self._startup_error = error
            return
        sockname = self._server.sockets[0].getsockname()
        self._bound_address = (sockname[0], sockname[1])
        loop = asyncio.get_running_loop()
        workers = [
            loop.create_task(self._worker_loop(), name=f"gateway-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._startup_done.set()
        await self._stop_requested.wait()
        # -- drain ------------------------------------------------------
        self._server.close()
        await self._server.wait_closed()
        self.draining = True
        deadline = loop.time() + self.config.drain_timeout
        while (
            self._queue.depth(LANE_CHEAP)
            or self._queue.depth(LANE_HEAVY)
            or self._queue.total_in_flight()
        ) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        self._workers_stopping = True
        async with self._work_available:
            self._work_available.notify_all()
        done, pending = await asyncio.wait(workers, timeout=5.0)
        for task in pending:
            task.cancel()
        # Idle keep-alive connections end on socket close; stuck ones are
        # aborted so shutdown is bounded regardless of peers.  Handler
        # tasks are then cancelled and awaited until none is left, within
        # a bound — no coroutine may outlive the loop (a GC'd half-run
        # handler is a resource leak warning).  A handler leaves the set
        # only once its socket is closed, so one that is still closing is
        # waited for too.
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        deadline = loop.time() + _HANDLER_DRAIN_SECONDS
        while self._connection_tasks and loop.time() < deadline:
            handlers = list(self._connection_tasks)
            for handler in handlers:
                handler.cancel()
            await asyncio.wait(handlers, timeout=deadline - loop.time())

    # ------------------------------------------------------------------
    # Dispatch workers
    # ------------------------------------------------------------------

    async def _worker_loop(self) -> None:
        """One dispatch slot: waits for admissible work, runs it on the
        compute pool, resolves the connection's future."""
        assert self._work_available is not None
        loop = asyncio.get_running_loop()
        while True:
            async with self._work_available:
                await self._work_available.wait_for(
                    lambda: self._queue.can_take() or self._workers_stopping
                )
                taken = self._queue.take()
                if taken is None:
                    if self._workers_stopping:
                        return
                    continue  # another worker got there first
            lane, job = taken
            waited = loop.time() - job.enqueued
            waited_ms = waited * 1e3
            self.gateway_counters.observe(f"lane.{lane}.wait_ms", waited_ms)
            if job.trace is not None:
                job.trace.record("queue_wait", waited)
            try:
                outcome = await loop.run_in_executor(self._pool, job.fn)
            except Exception as error:  # noqa: BLE001 — envelope contract
                envelope = ServiceResponse.failure(
                    "http",
                    "internal_error",
                    f"{type(error).__name__}: {error}",
                )
                outcome = (status_for_response(envelope), envelope.to_json())
            if not job.future.done():
                job.future.set_result(outcome)
            self.gateway_counters.increment(f"lane.{lane}.served")
            async with self._work_available:
                self._queue.finish(lane)
                # One slot freed: one job can start, so one waiter is
                # enough (this worker re-checks the queue itself too).
                self._work_available.notify(1)

    async def _submit(
        self,
        lane: str,
        fn: Callable[[], Tuple[int, str]],
        trace: Optional[RequestTrace] = None,
    ) -> Optional["asyncio.Future[Tuple[int, str]]"]:
        """Admit one job, or return ``None`` when the lane sheds it."""
        assert self._work_available is not None
        loop = asyncio.get_running_loop()
        job = _Job(lane, fn, loop.create_future(), loop.time(), trace)
        if not self._queue.offer(lane, job):
            self.gateway_counters.increment(f"lane.{lane}.shed")
            return None
        self.gateway_counters.increment(f"lane.{lane}.enqueued")
        self.gateway_counters.observe(
            f"lane.{lane}.depth", float(self._queue.depth(lane))
        )
        async with self._work_available:
            self._work_available.notify(1)
        return job.future

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive connection: parse → admit → respond, repeat.

        Every read and write is bounded; any timeout or protocol garbage
        disconnects this peer without touching handler state elsewhere.
        """
        self.gateway_counters.increment("connections.opened")
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self.gateway_counters.observe(
            "connections.active", float(len(self._writers))
        )
        try:
            while True:
                try:
                    request = await self._read_head(reader)
                except asyncio.TimeoutError:
                    self.gateway_counters.increment("timeouts.read")
                    break
                except (
                    ValueError,
                    ConnectionError,
                    asyncio.IncompleteReadError,
                ):
                    break  # protocol garbage or peer gone: just disconnect
                if request is None:
                    break  # clean EOF between requests
                try:
                    keep_alive = await self._serve_one(request, reader, writer)
                except asyncio.TimeoutError:
                    self.gateway_counters.increment("timeouts.read")
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not keep_alive or self.draining:
                    break
        except asyncio.CancelledError:
            # Drain-time cancellation.  Swallow it so the task completes
            # normally: Python 3.11's streams done-callback calls
            # ``task.exception()`` without a ``cancelled()`` guard and
            # would log a spurious loop error for every open connection.
            pass
        finally:
            self._writers.discard(writer)
            transport = writer.transport
            try:
                writer.close()
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (
                asyncio.TimeoutError,
                asyncio.CancelledError,
                ConnectionError,
                OSError,
            ):
                # Stuck peer, or we are being cancelled at drain: close
                # hard instead of waiting (the coroutine ends either way).
                if transport is not None:
                    transport.abort()
            finally:
                # Only now: the drain waits for every task in this set,
                # including one still closing its socket.
                if task is not None:
                    self._connection_tasks.discard(task)

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Read one request line + headers (under one read bound).

        Returns ``None`` on a clean EOF before a request line (the peer
        closed an idle keep-alive connection).  Raises ``ValueError`` on
        protocol garbage and ``asyncio.TimeoutError`` on a slow client.
        """
        return await asyncio.wait_for(
            self._read_head_unbounded(reader), self.config.read_timeout
        )

    @staticmethod
    async def _read_head_unbounded(
        reader: asyncio.StreamReader,
    ) -> Optional[_Request]:
        """:meth:`_read_head` without its bound: awaited as one unit, so
        lines already buffered cost no extra task or loop iteration."""
        line = await reader.readline()
        if not line:
            return None
        started = asyncio.get_running_loop().time()
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError as error:
            raise ValueError(f"malformed request line: {line!r}") from error
        if not version.startswith("HTTP/"):
            raise ValueError(f"not an HTTP version: {version!r}")
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise ValueError(f"malformed header line: {raw!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many header lines")
        path = urlsplit(target).path
        return _Request(method.upper(), path, version, headers, started)

    async def _serve_one(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        keep_alive = (
            request.version == "HTTP/1.1"
            and request.headers.get("connection", "").lower() != "close"
        )
        # The trace exists before any error can be produced, so every
        # envelope out of this exchange — transport errors and 401s
        # included — carries the request id.
        trace = self._begin_trace(request)
        # Consume any declared body up front so an error response leaves
        # the connection byte-aligned for the next keep-alive request.
        body: Optional[str] = None
        if request.headers.get("content-length") is not None:
            length, error = parse_content_length(
                request.headers.get("content-length"),
                self.config.max_body_bytes,
            )
            if error is not None:
                # The (oversized or unparseable) body was never read; the
                # connection cannot be reused.
                await self._respond(
                    writer, request, error_envelope=error, trace=trace
                )
                return False
            raw = await asyncio.wait_for(
                reader.readexactly(length), self.config.read_timeout
            )
            body, error = decode_body(raw)
            if error is not None:
                await self._respond(
                    writer, request, error_envelope=error, trace=trace
                )
                return keep_alive
        elif request.method == "POST":
            _length, error = parse_content_length(
                None, self.config.max_body_bytes
            )
            await self._respond(
                writer, request, error_envelope=error, trace=trace
            )
            return False

        # Liveness is answered inline — never queued, never authed — so
        # probes see "alive" even while the queue sheds everything else.
        if request.method == "GET" and request.path == "/healthz":
            text = json.dumps(jsonify(self.health()), sort_keys=True)
            await self._respond(writer, request, status=200, body_text=text)
            return keep_alive

        # The scrape endpoint mirrors /healthz: unauthenticated and
        # rendered inline from in-process counters, so it stays green
        # under saturation and a scraper never needs the shared secret.
        if request.method == "GET" and request.path == "/metrics":
            await self._respond(
                writer,
                request,
                status=200,
                body_text=self.metrics_exposition(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
            return keep_alive

        if self.auth_token is not None and not bearer_token_matches(
            request.headers.get("authorization"), self.auth_token
        ):
            await self._respond(
                writer,
                request,
                error_envelope=unauthorized_envelope(),
                trace=trace,
            )
            return keep_alive

        if self._tenants is not None:
            tenant = self._tenant_of(request)
            allowed, retry_after = self._tenants.try_acquire(tenant)
            if not allowed:
                self.gateway_counters.increment("tenants.throttled")
                envelope = ServiceResponse.failure(
                    "http",
                    "rate_limited",
                    f"per-tenant rate limit exceeded; retry after "
                    f"{retry_after:.2f}s",
                    details={
                        "reason": "tenant_rate_limited",
                        "retry_after_seconds": retry_after,
                    },
                )
                await self._respond(
                    writer,
                    request,
                    error_envelope=envelope,
                    retry_after=retry_after,
                    trace=trace,
                )
                return keep_alive

        route = (request.method, request.path)
        if route == ("GET", "/stats"):
            fn = self._stats_job()
            lane = LANE_CHEAP
        elif route == ("POST", "/query"):
            lane, fn = self._query_job(
                body if body is not None else "", trace
            )
        elif route == ("POST", "/batch"):
            lane, fn = self._batch_job(
                body if body is not None else "", trace
            )
        else:
            hints = (
                ("/query", "/batch")
                if request.method == "GET"
                else ("/stats", "/healthz", "/metrics")
            )
            await self._respond(
                writer,
                request,
                error_envelope=route_error_envelope(request.path, hints),
                trace=trace,
            )
            return keep_alive

        future = await self._submit(lane, fn, trace)
        if future is None:
            retry_after = self.config.retry_after_seconds
            envelope = shed_envelope(
                lane, retry_after, self._queue.depth(lane)
            )
            await self._respond(
                writer,
                request,
                error_envelope=envelope,
                retry_after=retry_after,
                trace=trace,
            )
            return keep_alive
        try:
            status, text = await asyncio.wait_for(
                future, self.config.dispatch_timeout
            )
        except asyncio.TimeoutError:
            future.cancel()
            self.gateway_counters.increment("timeouts.dispatch")
            envelope = ServiceResponse.failure(
                "http",
                "internal_error",
                f"request dispatch exceeded "
                f"{self.config.dispatch_timeout:g}s",
            )
            await self._respond(
                writer, request, error_envelope=envelope, trace=trace
            )
            return False
        await self._respond(
            writer, request, status=status, body_text=text, trace=trace
        )
        return keep_alive

    def _begin_trace(self, request: _Request) -> Optional[RequestTrace]:
        """A fresh trace for one ``POST``, or ``None`` with tracing off.

        Adopts a well-formed ``X-Request-Id`` header (anything unsafe to
        echo is discarded and a fresh id minted); ``X-Debug-Timings``
        opts the response into the per-stage ``timings`` breakdown.
        GETs are untraced — they serve counters, not queries.
        """
        if not self.tracing or request.method != "POST":
            return None
        request_id = clean_request_id(request.headers.get("x-request-id"))
        debug = request.headers.get(
            "x-debug-timings", ""
        ).strip().lower() in ("1", "true", "yes", "on")
        return RequestTrace(request_id, debug=debug)

    def _tenant_of(self, request: _Request) -> str:
        """The rate-limit identity of a request: its bearer token."""
        header = request.headers.get("authorization", "")
        if header.startswith("Bearer ") and len(header) > len("Bearer "):
            return header[len("Bearer "):]
        return ANONYMOUS_TENANT

    # ------------------------------------------------------------------
    # Jobs (run on the compute pool, off the event loop)
    # ------------------------------------------------------------------

    def _stats_job(self) -> Callable[[], Tuple[int, str]]:
        """The ``/stats`` body, computed off-loop (a cluster executor's
        stats() does shard round-trips)."""

        def fn() -> Tuple[int, str]:
            return 200, json.dumps(jsonify(self.stats()), sort_keys=True)

        return fn

    def _query_job(
        self, body: str, trace: Optional[RequestTrace] = None
    ) -> Tuple[str, Callable[[], Tuple[int, str]]]:
        """Lane + compute closure for one ``/query`` body.

        Small bodies are parsed here (cheaply, on the loop) **only to
        pick the lane**; the dispatcher always receives the raw body
        string, exactly as the threaded front end hands it over, so
        every envelope — errors included — stays byte-identical across
        front ends.  Oversized bodies go to the heavy lane unparsed.

        The closure re-activates *trace* on the pool thread (context
        variables do not cross ``run_in_executor``), stamps the envelope
        with the request id, and emits the slow-query log line when the
        whole exchange ran over the threshold.
        """
        lane = LANE_CHEAP
        if len(body) > self.config.inline_parse_bytes:
            lane = LANE_HEAVY
        else:
            try:
                parsed = json.loads(body)
            except json.JSONDecodeError:
                parsed = None  # dispatcher produces the canonical error
            if isinstance(parsed, dict):
                lane = lane_for_service(parsed.get("service"))

        def fn() -> Tuple[int, str]:
            with trace_context(trace):
                response = self.service.execute(body)
            if trace is not None:
                response = stamp_response(response, trace)
                maybe_log_slow(
                    trace,
                    service=response.service,
                    latency_ms=trace.elapsed_ms(),
                    threshold_ms=self.slow_query_ms,
                )
            return status_for_response(response), response.to_json()

        return lane, fn

    def _batch_job(
        self, body: str, trace: Optional[RequestTrace] = None
    ) -> Tuple[str, Callable[[], Tuple[int, str]]]:
        """Lane + compute closure for one ``/batch`` body."""

        def finish(responses: Any) -> Tuple[int, str]:
            if trace is not None:
                responses = [
                    stamp_response(item, trace) for item in responses
                ]
                maybe_log_slow(
                    trace,
                    service="batch",
                    latency_ms=trace.elapsed_ms(),
                    threshold_ms=self.slow_query_ms,
                )
            return 200, batch_body_text(responses)

        if len(body) > self.config.inline_parse_bytes:
            # Large batch: heavy by size; the worker thread parses it.
            def fn_raw() -> Tuple[int, str]:
                entries, error = parse_batch(body)
                if error is not None:
                    failure = stamp_response(error, trace)
                    return status_for_response(failure), failure.to_json()
                with trace_context(trace):
                    responses = self.service.execute_batch(entries)
                return finish(responses)

            return LANE_HEAVY, fn_raw
        entries, error = parse_batch(body)
        if error is not None:
            def fn_error() -> Tuple[int, str]:
                failure = stamp_response(error, trace)
                return status_for_response(failure), failure.to_json()

            return LANE_CHEAP, fn_error
        lane = lane_for_batch(entries, self.config.heavy_batch_size)

        def fn() -> Tuple[int, str]:
            with trace_context(trace):
                responses = self.service.execute_batch(entries)
            return finish(responses)

        return lane, fn

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        request: _Request,
        *,
        status: Optional[int] = None,
        body_text: Optional[str] = None,
        error_envelope: Optional[ServiceResponse] = None,
        retry_after: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
        content_type: str = "application/json",
    ) -> None:
        """Write one bounded response (envelope or pre-rendered body).

        Every 429 carries a ``Retry-After`` header — from the explicit
        *retry_after*, the config default for shed requests, or the
        ``retry_after_seconds`` the service layer put in the envelope.
        With *trace* set, an error envelope is stamped with the request
        id before serialising and every response echoes it as an
        ``X-Request-Id`` header (pre-rendered success bodies were
        stamped by the compute closure).  A write that cannot drain
        within ``write_timeout`` aborts the connection: a stuck peer
        costs one socket, not a handler.
        """
        if error_envelope is not None:
            if trace is not None:
                error_envelope = stamp_response(error_envelope, trace)
            status = status_for_response(error_envelope)
            body_text = error_envelope.to_json()
            if retry_after is None and status == 429:
                details = error_envelope.error.details if error_envelope.error else {}
                retry_after = float(
                    details.get(
                        "retry_after_seconds", self.config.retry_after_seconds
                    )
                )
        assert status is not None and body_text is not None
        if retry_after is None and status == 429:
            retry_after = self._retry_after_from_body(body_text)
        body = body_text.encode("utf-8")
        close = self.draining or not (
            request.version == "HTTP/1.1"
            and request.headers.get("connection", "").lower() != "close"
        )
        reason = _REASON_PHRASES.get(status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if trace is not None:
            head_lines.append(f"X-Request-Id: {trace.request_id}")
        if retry_after is not None:
            head_lines.append(f"Retry-After: {_retry_after_header(retry_after)}")
        if close:
            head_lines.append("Connection: close")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        try:
            # Only a write the transport could not hand to the socket at
            # once needs draining (and a bounded wait).
            if writer.transport is None or writer.transport.get_write_buffer_size():
                await asyncio.wait_for(
                    writer.drain(), timeout=self.config.write_timeout
                )
        except asyncio.TimeoutError:
            self.gateway_counters.increment("timeouts.write")
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionError("write timed out; connection aborted") from None
        duration_ms: Optional[float] = None
        if request.started is not None:
            loop = asyncio.get_running_loop()
            duration_ms = (loop.time() - request.started) * 1e3
        self.http_counters.record(request.path, status, duration_ms)
        if self.verbose:
            print(
                f"gateway: {request.method} {request.path} -> {status}",
                file=sys.stderr,
            )

    def _retry_after_from_body(self, body_text: str) -> float:
        """Best-effort ``retry_after_seconds`` from a 429 envelope body."""
        try:
            details = json.loads(body_text)["error"]["details"]
            return float(details["retry_after_seconds"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError):
            return self.config.retry_after_seconds


def start_gateway(
    service: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    **gateway_kwargs: Any,
) -> OctopusAsyncGateway:
    """Boot a gateway (ephemeral port by default) and return it accepting.

    The asyncio twin of :func:`repro.server.http.serve_in_background`:
    tests and benchmarks get a running front end in one call and shut it
    down with :meth:`~OctopusAsyncGateway.shutdown_gracefully`.
    """
    return OctopusAsyncGateway(service, host, port, **gateway_kwargs).start()
