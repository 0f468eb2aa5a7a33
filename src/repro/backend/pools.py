"""Pooled execution backends: in-process threads and forked processes.

Both create their executor lazily on first use, so constructing a backend
(e.g. inside :class:`~repro.core.octopus.OctopusConfig` plumbing) costs
nothing until work is actually dispatched, and both keep the pool alive
across calls — index builds issue many small ``map_chunks`` rounds and
per-call pool startup would dominate.

Choosing between them:

* :class:`ThreadPoolBackend` shares the parent's memory, so chunk results
  are passed by reference; CPython's GIL limits its speedup for
  pure-Python hot loops, but NumPy-heavy chunks and anything releasing the
  GIL scale.
* :class:`ProcessPoolBackend` sidesteps the GIL entirely.  The
  heavyweight sampling inputs — the graph's CSR arrays and the per-edge
  probabilities — are adopted *once per worker* through the pool
  initializer (plus fork inheritance where available) and addressed by an
  integer token per chunk, so a chunk goes out as a few ints and its
  packed ``(nodes, offsets)`` arrays come back pickled in the pool's reply.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import stage as _trace_stage
from repro.backend.base import (
    ExecutionBackend,
    _discard_sampling_state,
    _install_sampling_state,
    _publish_sampling_state,
    _SHARED_SAMPLING_STATE,
    default_worker_count,
)
from repro.utils.validation import check_positive

__all__ = ["ThreadPoolBackend", "ProcessPoolBackend"]

# How many distinct (graph, edge-probability) payloads one process pool
# keeps adopted at a time.  An index build uses one; a query stream rotates
# through a few probability vectors.  Evicting simply forces a republish
# (and a cheap fork-based pool restart) if an old payload comes back.
_MAX_SHARED_PAYLOADS = 8


def _discard_published_tokens(published: "OrderedDict[Any, int]") -> None:
    """Release a backend's registry entries (``close()`` and GC finalizer).

    Takes the live ``_published`` mapping, not the backend (a finalizer
    callback must not reference its own object); after ``close()`` the
    mapping is empty and this is a no-op.
    """
    for token in published.values():
        _discard_sampling_state(token)
    published.clear()


class _PooledBackend(ExecutionBackend):
    """Common lazy-pool lifecycle for the two pooled backends."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = (
            int(workers) if workers is not None else default_worker_count()
        )
        check_positive(self._workers, "workers")
        self._executor: Optional[Executor] = None
        # One backend may be shared by concurrent query threads (e.g. the
        # thread-mode service executor over a process-backed Octopus); the
        # lock keeps the lazy creation from racing and leaking a pool.
        self._executor_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def _pool(self) -> Executor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def map_chunks(
        self, function: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Dispatch chunks to the pool; results come back in input order.

        The whole dispatch is one ``backend.map_chunks`` trace stage —
        under an active request trace the sampling fan-out shows up as a
        single wall-time entry (a no-op otherwise).
        """
        if not chunks:
            return []
        with _trace_stage("backend.map_chunks"):
            if len(chunks) == 1:
                # One chunk can't parallelise; skip the dispatch overhead.
                return [function(chunks[0])]
            return list(self._pool().map(function, chunks))

    def close(self) -> None:
        """Shut the pool down and forget it (a later call restarts it)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class ThreadPoolBackend(_PooledBackend):
    """Chunks run on a shared :class:`~concurrent.futures.ThreadPoolExecutor`."""

    name = "threads"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-backend"
        )


class ProcessPoolBackend(_PooledBackend):
    """Chunks run on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Uses the ``fork`` start method where available (cheap copy-on-write
    worker startup).  RR-sampling inputs are *adopted* rather than shipped:
    :meth:`_sampling_payload` registers the graph and edge-probability
    arrays in the module-level shared registry — keyed by graph identity
    plus a digest of the probability bytes, so repeated queries with equal
    probabilities reuse the entry — and chunks carry only an integer
    token.  Workers receive the registry once per worker, at pool
    creation, through the pool initializer (free under fork's copy-on-write
    memory; one pickle per worker under spawn).

    A payload the live pool predates is handled without ever yanking the
    pool from under concurrent callers: if the pool is idle it is retired
    under the lock and the next dispatch re-forks with the grown registry
    (milliseconds under fork); if maps are in flight, this one call ships
    the arrays inline with its chunks — the pre-adoption behaviour — and
    adoption picks up again at the next idle publish.  ``close()`` drops
    the backend's registry entries, so discarded backends pin no arrays.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        # (id(graph), probability-digest) -> token, insertion-ordered for
        # FIFO eviction.  The registry holds strong references, so the
        # graph id stays valid for exactly as long as the mapping exists.
        # All mutations happen under _executor_lock.
        self._published: OrderedDict[Tuple[int, bytes], int] = OrderedDict()
        self._executor_tokens: frozenset = frozenset()
        self._inflight = 0
        # A backend dropped without close() must not pin its graphs in the
        # module registry forever.
        self._registry_finalizer = weakref.finalize(
            self, _discard_published_tokens, self._published
        )

    def _make_executor(self) -> Executor:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX platforms
            context = multiprocessing.get_context()
        # Workers adopt the registry as of this fork; remember which
        # tokens they know so later publishes can tell new from adopted.
        self._executor_tokens = frozenset(_SHARED_SAMPLING_STATE)
        return ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=context,
            initializer=_install_sampling_state,
            initargs=(dict(_SHARED_SAMPLING_STATE),),
        )

    def _sampling_payload(self, graph: Any, edge_probabilities: np.ndarray) -> Any:
        """Adopt the sampling inputs once per worker; chunks get a token."""
        key = (
            id(graph),
            hashlib.blake2b(edge_probabilities.tobytes(), digest_size=16).digest(),
        )
        with self._executor_lock:
            token = self._published.get(key)
            if token is None:
                token = _publish_sampling_state(graph, edge_probabilities)
                self._published[key] = token
                # FIFO safety valve; in the (pathological) event a just-
                # evicted token is still headed for a not-yet-forked pool,
                # the worker raises rather than miscomputes.
                while len(self._published) > _MAX_SHARED_PAYLOADS:
                    _, stale = self._published.popitem(last=False)
                    _discard_sampling_state(stale)
            if self._executor is None or token in self._executor_tokens:
                # Either the next dispatch forks with the registry as it
                # stands now, or the live pool already adopted this token.
                return token
            if self._inflight == 0:
                # Live pool predates the payload but nothing is running:
                # retire it; the next dispatch re-forks with the token.
                executor, self._executor = self._executor, None
                executor.shutdown(wait=True)
                return token
            # Busy pool: don't disturb in-flight maps — this call ships
            # the arrays with its chunks (the pre-adoption behaviour).
            return (graph, edge_probabilities)

    def close(self) -> None:
        """Shut the pool down and release this backend's shared payloads."""
        with self._executor_lock:
            _discard_published_tokens(self._published)
            self._executor_tokens = frozenset()
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def map_chunks(
        self, function: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Dispatch chunks, batching queue traffic for many small chunks.

        Wrapped in a ``backend.map_chunks`` trace stage like the thread
        pool's, so per-request timings name the sampling fan-out the
        same way whichever pool ran it.
        """
        if not chunks:
            return []
        if len(chunks) == 1:
            with _trace_stage("backend.map_chunks"):
                return [function(chunks[0])]
        batch = max(1, len(chunks) // (self._workers * 4))
        with self._executor_lock:
            if self._executor is None:
                self._executor = self._make_executor()
            executor = self._executor
            # Publishes see _inflight > 0 and route around the live pool
            # instead of shutting it down mid-map.
            self._inflight += 1
        try:
            with _trace_stage("backend.map_chunks"):
                return list(executor.map(function, chunks, chunksize=batch))
        finally:
            with self._executor_lock:
                self._inflight -= 1
