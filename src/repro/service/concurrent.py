"""Concurrent request execution over the typed service layer.

:class:`ConcurrentOctopusService` serves the *same*
:class:`~repro.service.requests.ServiceRequest` /
:class:`~repro.service.responses.ServiceResponse` envelopes as
:class:`~repro.service.dispatcher.OctopusService`, but runs them on a
worker pool:

* ``mode="threads"`` (default) — workers share one dispatcher, one result
  cache and one metrics collector.  CPython's GIL bounds the speedup of
  pure-Python compute, so this mode's wins are overlap (queries that
  release the GIL, e.g. NumPy-heavy estimation or chunk dispatch to a
  process backend) and **in-flight de-duplication**: identical requests
  submitted while the first is still computing share its result instead of
  recomputing it — the concurrency analogue of the batch executor's
  duplicate sharing.
* ``mode="processes"`` — each worker owns a forked replica of the service,
  sidestepping the GIL for true parallel query execution.  The parent
  keeps the authoritative metrics and result cache (consulted before
  dispatch, populated after), so repeated queries still hit one shared
  cache and ``stats()`` stays meaningful.

Everything is future-based: :meth:`~ConcurrentOctopusService.submit`
returns a :class:`~concurrent.futures.Future` resolving to a
``ServiceResponse`` (never an exception — the envelope *is* the error
contract), :meth:`~ConcurrentOctopusService.execute` waits for one
request, and :meth:`~ConcurrentOctopusService.execute_batch` waits for
many while preserving input order.
"""

from __future__ import annotations

import contextvars
import copy
import dataclasses
import multiprocessing
import threading
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.backend.base import default_worker_count
from repro.core.octopus import Octopus
from repro.service.dispatcher import OctopusService, RequestLike
from repro.service.middleware import CacheMiddleware
from repro.service.requests import ServiceRequest
from repro.service.responses import ServiceResponse
from repro.utils.validation import ValidationError, check_positive

__all__ = ["ConcurrentOctopusService"]

# Per-worker service replica for process mode, installed by the pool
# initializer.  With the ``fork`` start method the replica is inherited by
# copy-on-write, so the (expensive) indexes are never pickled.
_WORKER_SERVICE: Optional[OctopusService] = None


class _NoOpCache:
    """Disables a worker replica's result cache (see initializer below)."""

    @staticmethod
    def get(key: Any) -> None:
        return None

    @staticmethod
    def put(key: Any, value: Any) -> None:
        pass


def _adopt_worker_service(service: OctopusService) -> None:
    """Pool initializer: install this process's service replica.

    Two fork-hygiene adjustments:

    * pooled execution backends do not survive a fork (their worker
      threads/processes belong to the parent), so the replica's backend
      drops its executor and lazily re-creates one if needed;
    * the replica's result cache is disabled — the *parent* keeps the one
      authoritative cache, and a private forked cache could serve stale
      results forever (the parent cannot see or invalidate it after e.g. a
      ``cache.clear()`` or model refresh).
    """
    global _WORKER_SERVICE
    execution = service.backend.execution
    if hasattr(execution, "_executor"):
        execution._executor = None
    if hasattr(execution, "_reset_shm_after_fork"):
        # The parent's shared-memory arenas belong to the parent's pool;
        # this replica must build its own (inside the inherited session
        # directory, which keeps crash cleanup with the original owner).
        execution._reset_shm_after_fork()
    for layer in service.middleware:
        if isinstance(layer, CacheMiddleware):
            layer.cache = _NoOpCache()
    _WORKER_SERVICE = service


def _process_execute(request: ServiceRequest) -> ServiceResponse:
    """Run one request on this worker's replica (process mode)."""
    if _WORKER_SERVICE is None:  # pragma: no cover — initializer contract
        return ServiceResponse.failure(
            request.service, "internal_error", "worker has no service replica"
        )
    return _WORKER_SERVICE.execute(request)


class ConcurrentOctopusService:
    """Worker-pool executor for the OCTOPUS service layer.

    Accepts either an existing :class:`OctopusService` or a bare
    :class:`Octopus` backend (wrapped with *service_kwargs*).  The wrapped
    dispatcher stays fully usable on its own; this class adds scheduling,
    not semantics.
    """

    def __init__(
        self,
        service: Union[OctopusService, Octopus],
        *,
        workers: Optional[int] = None,
        mode: str = "threads",
        **service_kwargs: Any,
    ) -> None:
        if isinstance(service, OctopusService):
            if service_kwargs:
                raise ValidationError(
                    "service_kwargs only apply when wrapping a bare Octopus"
                )
            self.service = service
        elif isinstance(service, Octopus):
            self.service = OctopusService(service, **service_kwargs)
        else:
            raise ValidationError(
                f"service must be an OctopusService or Octopus, "
                f"got {type(service).__name__}"
            )
        if mode not in ("threads", "processes"):
            raise ValidationError(
                f"mode must be 'threads' or 'processes', got {mode!r}"
            )
        if mode == "processes" and "fork" not in multiprocessing.get_all_start_methods():
            raise ValidationError(
                "process mode needs the 'fork' start method (POSIX only); "
                "use mode='threads' on this platform"
            )
        self.mode = mode
        self.workers = int(workers) if workers is not None else default_worker_count()
        check_positive(self.workers, "workers")
        self._executor: Optional[Executor] = None
        self._executor_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, Any], "Future[ServiceResponse]"] = {}
        # RLock: registering an already-completed future (e.g. a parent
        # cache hit) fires its retire callback synchronously on this same
        # thread, which re-enters the lock.
        self._inflight_lock = threading.RLock()
        self._shared_inflight = 0
        self.closed = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, request: RequestLike) -> ServiceResponse:
        """Serve one request on the pool and wait for it; never raises."""
        return self.submit(request).result()

    def execute_batch(
        self, requests: Sequence[RequestLike]
    ) -> List[ServiceResponse]:
        """Serve many requests concurrently, in input order.

        Duplicates are shared through in-flight de-duplication (marked
        ``cache_hit=True``) exactly as the sequential batch executor
        shares them, and a bad request fails only its own slot.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def submit(self, request: RequestLike) -> "Future[ServiceResponse]":
        """Enqueue one request; the future always resolves to an envelope.

        Identical cacheable requests submitted while one is already in
        flight attach to the leader's computation and receive its result
        with ``cache_hit=True``; if the leader fails, each follower
        recomputes independently (failures are never shared, matching the
        batch executor).
        """
        try:
            typed = OctopusService._coerce(request)
        except ValidationError as error:
            return _completed(
                ServiceResponse.failure(
                    OctopusService._service_name_of(request),
                    "malformed_request",
                    str(error),
                )
            )
        key = self._dedup_key(typed)
        if key is None:
            return self._submit_compute(typed)
        with self._inflight_lock:
            leader = self._inflight.get(key)
            if leader is None:
                future = self._submit_compute(typed)
                self._inflight[key] = future
                future.add_done_callback(
                    lambda done, key=key: self._retire_inflight(key, done)
                )
                return future
            self._shared_inflight += 1
        return self._attach_follower(leader, typed)

    def stats(self) -> Dict[str, Any]:
        """Service + backend statistics plus executor-level counters."""
        stats = self.service.stats()
        stats["executor.kind"] = self.mode
        stats["executor.workers"] = float(self.workers)
        stats["executor.process_mode"] = float(self.mode == "processes")
        with self._inflight_lock:
            stats["executor.inflight"] = float(len(self._inflight))
            stats["executor.shared_inflight"] = float(self._shared_inflight)
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain and release the worker pool."""
        self.closed = True
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ConcurrentOctopusService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Convenience delegation (the executor is a drop-in dispatcher)
    # ------------------------------------------------------------------

    @property
    def backend(self) -> Octopus:
        """The compute backend of the wrapped dispatcher."""
        return self.service.backend

    @property
    def cache(self):
        """The shared result cache (authoritative in both modes)."""
        return self.service.cache

    @property
    def metrics(self):
        """The shared metrics collector (authoritative in both modes)."""
        return self.service.metrics

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pool(self) -> Executor:
        with self._executor_lock:
            if self._executor is None:
                if self.closed:
                    raise ValidationError("executor is closed")
                if self.mode == "threads":
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="octopus-service",
                    )
                else:
                    # fork: workers inherit the parent's indexes by
                    # copy-on-write instead of pickling them.
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_adopt_worker_service,
                        initargs=(self.service,),
                    )
            return self._executor

    @staticmethod
    def _dedup_key(typed: ServiceRequest) -> Optional[Tuple[str, Any]]:
        """Hashable in-flight identity of a request, or ``None``."""
        try:
            raw = typed.cache_key()
            if raw is None:
                return None
            key = (typed.service, raw)
            hash(key)
        except TypeError:
            # Unhashable field values fail structural validation inside
            # the stack; just don't de-duplicate them.
            return None
        return key

    def _retire_inflight(
        self, key: Tuple[str, Any], future: "Future[ServiceResponse]"
    ) -> None:
        with self._inflight_lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def _submit_compute(
        self, typed: ServiceRequest
    ) -> "Future[ServiceResponse]":
        """Dispatch one computation to the pool (no de-duplication).

        Thread mode runs the dispatch under a copy of the caller's
        context so a front door's active request trace (a context
        variable) follows the request onto the worker thread.
        """
        if self.mode == "threads":
            context = contextvars.copy_context()
            return self._pool().submit(
                context.run, self.service.execute, typed
            )
        return self._submit_process(typed)

    def _submit_process(
        self, typed: ServiceRequest
    ) -> "Future[ServiceResponse]":
        """Process mode: parent-side cache check, dispatch, then record."""
        key = typed.cache_key()
        if key is not None:
            cached = self.service.cache.get(key)
            if cached is not None:
                started = time.perf_counter()
                response = dataclasses.replace(
                    cached,
                    cache_hit=True,
                    payload=copy.deepcopy(cached.payload),
                    latency_ms=(time.perf_counter() - started) * 1e3,
                )
                self.service.metrics.record(response)
                return _completed(response)
        outer: "Future[ServiceResponse]" = Future()
        inner = self._pool().submit(_process_execute, typed)

        def _finish(done: "Future[ServiceResponse]") -> None:
            try:
                response = done.result()
            except Exception as error:  # noqa: BLE001 — envelope contract
                response = ServiceResponse.failure(
                    typed.service,
                    "internal_error",
                    f"{type(error).__name__}: {error}",
                )
            self.service.metrics.record(response)
            if key is not None and response.ok and not response.cache_hit:
                # Tracing fields never enter the cache: a later hit
                # belongs to a different request.
                self.service.cache.put(
                    key,
                    dataclasses.replace(
                        response,
                        payload=copy.deepcopy(response.payload),
                        request_id=None,
                        timings=None,
                    ),
                )
            outer.set_result(response)

        inner.add_done_callback(_finish)
        return outer

    def _attach_follower(
        self, leader: "Future[ServiceResponse]", typed: ServiceRequest
    ) -> "Future[ServiceResponse]":
        """Share the leader's eventual result with a duplicate request."""
        follower: "Future[ServiceResponse]" = Future()

        def _on_leader_done(done: "Future[ServiceResponse]") -> None:
            try:
                response = done.result()
            except Exception:  # noqa: BLE001 — leader already normalises
                response = None
            if response is not None and response.ok:
                started = time.perf_counter()
                shared = dataclasses.replace(
                    response,
                    cache_hit=True,
                    payload=copy.deepcopy(response.payload),
                    latency_ms=(time.perf_counter() - started) * 1e3,
                )
                self.service.metrics.record(shared)
                follower.set_result(shared)
                return
            # Failures are not shared: recompute this duplicate alone.
            retry = self._submit_compute(typed)
            retry.add_done_callback(
                lambda done_retry: follower.set_result(done_retry.result())
            )

        leader.add_done_callback(_on_leader_done)
        return follower


def _completed(response: ServiceResponse) -> "Future[ServiceResponse]":
    """A future that is already resolved to *response*."""
    future: "Future[ServiceResponse]" = Future()
    future.set_result(response)
    return future
