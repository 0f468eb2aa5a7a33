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
  sidestepping the GIL for true parallel query execution.  The parent runs
  the dispatcher's one middleware stack — rate limit, validation, user
  middleware, result cache, metrics — ending in "compute on a forked
  replica" (:meth:`OctopusService.over`); a replica executes only
  :meth:`OctopusService.handle`.  A request the cache can answer needs no
  worker and is served on the calling thread.

Everything is future-based: :meth:`~ConcurrentOctopusService.submit`
returns a :class:`~concurrent.futures.Future` resolving to a
``ServiceResponse`` (never an exception — the envelope *is* the error
contract), :meth:`~ConcurrentOctopusService.execute` waits for one
request, and :meth:`~ConcurrentOctopusService.execute_batch` waits for
many while preserving input order.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.backend.base import default_worker_count
from repro.core.octopus import Octopus
from repro.service.dispatcher import OctopusService, RequestLike
from repro.service.requests import ServiceRequest, StatsRequest
from repro.service.responses import ServiceResponse
from repro.utils.validation import ValidationError, check_positive

__all__ = ["ConcurrentOctopusService"]

# Per-worker service replica for process mode, installed by the pool
# initializer.  With the ``fork`` start method the replica is inherited by
# copy-on-write, so the (expensive) indexes are never pickled.
_WORKER_SERVICE: Optional[OctopusService] = None


def _adopt_worker_service(service: OctopusService) -> None:
    """Pool initializer: install this process's service replica.

    Fork hygiene: pooled execution backends do not survive a fork (their
    worker threads/processes belong to the parent), so the replica's
    backend drops its executor and lazily re-creates one if needed.  The
    replica's middleware is left as inherited and never runs — replicas
    execute :meth:`OctopusService.handle` only — so a forked cache or
    rate-limit bucket can neither go stale nor spend a second budget.
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
    _WORKER_SERVICE = service


def _replica_handle(request: ServiceRequest) -> ServiceResponse:
    """Compute one admitted request on this worker's replica."""
    if _WORKER_SERVICE is None:  # pragma: no cover — initializer contract
        return ServiceResponse.failure(
            request.service, "internal_error", "worker has no service replica"
        )
    return _WORKER_SERVICE.handle(request)


class ConcurrentOctopusService:
    """Worker-pool executor for the OCTOPUS service layer.

    Accepts either an existing :class:`OctopusService` or a bare
    :class:`Octopus` backend (wrapped with *service_kwargs*).  The wrapped
    dispatcher stays fully usable on its own; this class adds scheduling
    (a pool, in-flight de-duplication), not semantics — every admitted
    request runs the dispatcher's own stack exactly once, in this process.
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
        # Pool threads run the serving stack.  In thread mode that is the
        # dispatcher itself; in process mode the same stack ends in a
        # replica computation the thread merely waits for.  Neither pool
        # starts a thread or forks a process before its first submission.
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="octopus-service"
        )
        self._replicas: Optional[ProcessPoolExecutor] = None
        self._front = self.service
        if mode == "processes":
            # fork: workers inherit the parent's indexes by copy-on-write
            # instead of pickling them.
            self._replicas = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt_worker_service,
                initargs=(self.service,),
            )
            self._front = self.service.over(self._compute_on_replica)
        self._inflight: Dict[Tuple[str, Any], "Future[ServiceResponse]"] = {}
        # RLock: a future that finished before its retire callback was
        # registered fires it synchronously on this same thread, which
        # re-enters the lock.
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
        batch executor).  A closed executor answers ``internal_error``.
        """
        if self.closed:
            return _completed(self.service.refuse(request))
        try:
            typed = OctopusService._coerce(request)
        except ValidationError:
            # The dispatcher owns the malformed-request envelope.
            return _completed(self.service.execute(request))
        key = self._dedup_key(typed)
        if key is None:
            return self._submit_compute(typed)
        if self._replicas is not None and key[1] in self.service.cache:
            # Needs no worker: the stack answers it from the result cache
            # right here, on the calling thread.
            return _completed(self._front.execute(typed))
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
        """Drain and release the worker pool; idempotent."""
        self.closed = True
        self._threads.shutdown(wait=True)
        if self._replicas is not None:
            self._replicas.shutdown(wait=True)

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
        """The dispatcher's result cache (the only one, in both modes)."""
        return self.service.cache

    @property
    def metrics(self):
        """The dispatcher's metrics collector (the only one, in both modes)."""
        return self.service.metrics

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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
        """Run the serving stack for one request on a pool thread.

        The thread runs under a copy of the caller's context so a front
        door's active request trace (a context variable) follows the
        request onto it.
        """
        context = contextvars.copy_context()
        try:
            return self._threads.submit(
                context.run, self._front.execute, typed
            )
        except RuntimeError:  # close() raced this submission
            return _completed(self.service.refuse(typed))

    def _compute_on_replica(self, request: ServiceRequest) -> ServiceResponse:
        """Process mode's innermost handler: a forked replica's answer.

        Statistics are the one exception — the live counters are this
        process's, so they are read here.
        """
        if isinstance(request, StatsRequest):
            return ServiceResponse.success(request.service, self.stats())
        assert self._replicas is not None
        try:
            return self._replicas.submit(_replica_handle, request).result()
        except Exception as error:  # noqa: BLE001 — envelope contract
            return ServiceResponse.failure(
                request.service,
                "internal_error",
                f"{type(error).__name__}: {error}",
            )

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
                follower.set_result(self.service.share(response))
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
