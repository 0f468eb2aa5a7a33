"""Pooled execution backends: shared-memory threads and forked processes.

Both create their executor lazily on first use, so constructing a backend
(e.g. inside :class:`~repro.core.octopus.OctopusConfig` plumbing) costs
nothing until work is actually dispatched, and both keep the pool alive
across calls — index builds issue many small ``map_chunks`` rounds and
per-call pool startup would dominate.

Choosing between them:

* :class:`ThreadPoolBackend` shares memory, so chunks carry no pickling
  cost; CPython's GIL limits its speedup for pure-Python hot loops, but
  NumPy-heavy chunks and anything releasing the GIL scale.
* :class:`ProcessPoolBackend` sidesteps the GIL entirely.  Chunk arguments
  and results cross a pickle boundary, but the heavyweight sampling inputs
  — the graph's CSR arrays and the per-edge probabilities — are adopted
  *once per worker* through the pool initializer (plus fork inheritance
  where available) and addressed by an integer token per chunk, so the
  steady-state queue traffic is a few ints out and two flat packed arrays
  back per chunk.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import multiprocessing
import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import stage as _trace_stage
from repro.backend.base import (
    ExecutionBackend,
    _discard_sampling_state,
    _install_sampling_state,
    _publish_sampling_state,
    _sample_rr_chunk,
    _SHARED_SAMPLING_STATE,
    default_worker_count,
)
from repro.backend.shm import ShmArena, ShmSession, ShmSlice, shm_enabled
from repro.propagation.packed import PackedRRSets
from repro.utils.validation import check_positive

__all__ = ["ThreadPoolBackend", "ProcessPoolBackend"]

#: Uniquifies arena base-segment names across backends and nested forks
#: (a forked replica building its own pool writes into the same session
#: directory — names must not collide with its siblings').
_ARENA_SERIAL = itertools.count()

# How many distinct (graph, edge-probability) payloads one process pool
# keeps adopted at a time.  An index build uses one; a query stream rotates
# through a few probability vectors.  Evicting simply forces a republish
# (and a cheap fork-based pool restart) if an old payload comes back.
_MAX_SHARED_PAYLOADS = 8


# ----------------------------------------------------------------------
# Worker-side shared-memory state (process pools)
# ----------------------------------------------------------------------
#
# The parent creates one arena per worker slot before the pool forks and
# ships them — plus an epoch counter and a claim counter — through the
# pool initializer (inherited memory under fork; the bundle is None under
# any other start method, where shm is disabled anyway).  Each worker
# claims one arena and appends chunk payloads to it; the parent bumps the
# epoch only when no transport window is open, and the worker rewinds its
# arena lazily when it observes the bump.  That handshake guarantees a
# worker never overwrites bytes a parent thread may still be reading.


class _WorkerShm:
    """This worker process's arena plus the epoch handshake state."""

    __slots__ = ("arena", "epoch", "seen_epoch")

    def __init__(self, arena: ShmArena, epoch: Any) -> None:
        self.arena = arena
        self.epoch = epoch
        self.seen_epoch = int(epoch.value)

    def write(self, arrays: Sequence[np.ndarray]) -> Optional[ShmSlice]:
        """Append *arrays*; ``None`` when the filesystem refuses (the
        caller then falls back to the inline pickle payload)."""
        current = int(self.epoch.value)
        if current != self.seen_epoch:
            self.arena.reset()
            self.seen_epoch = current
        try:
            return self.arena.write_arrays(arrays)
        except OSError:
            return None


_WORKER_SHM: Optional[_WorkerShm] = None


def _install_worker_state(
    entries: Dict[int, Tuple[Any, np.ndarray]], shm_bundle: Optional[Tuple]
) -> None:
    """Pool initializer: adopt the registry and claim one arena slot."""
    _install_sampling_state(entries)
    if shm_bundle is None:
        return
    arenas, epoch, claim = shm_bundle
    with claim.get_lock():
        index = claim.value
        claim.value += 1
    if index < len(arenas):
        global _WORKER_SHM
        _WORKER_SHM = _WorkerShm(arenas[index], epoch)


def _sample_rr_chunk_shm(task: Tuple) -> Any:
    """Chunk worker of the shm data plane: sample, write, send a slice.

    Runs :func:`repro.backend.base._sample_rr_chunk` and moves the packed
    payload into this worker's arena, returning only the
    :class:`~repro.backend.shm.ShmSlice` descriptor.  Executed in the
    parent (the single-chunk shortcut) or on a worker whose arena claim
    failed, it degrades to returning the raw arrays — the assembler
    accepts both shapes, and the bytes are identical either way.
    """
    nodes, offsets = _sample_rr_chunk(task)
    state = _WORKER_SHM
    if state is None:
        return nodes, offsets
    ref = state.write((nodes, offsets))
    if ref is None:
        return nodes, offsets
    return ref


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

    Chunk *results* travel the other way through the shared-memory data
    plane (:mod:`repro.backend.shm`) when it is enabled: each worker owns
    an arena in a parent-owned session directory, writes its packed
    ``(nodes, offsets)`` payloads there and returns only descriptors; the
    parent assembles the batch from zero-copy views inside a *transport
    window* and bumps a shared epoch when the last window closes, at which
    point workers rewind their arenas.  ``REPRO_SHM=0`` (or a platform
    without ``fork``) keeps the historical pickle transport — byte-
    identical output either way.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        # Shared-memory data plane (populated lazily, fork contexts only).
        self._shm_session: Optional[ShmSession] = None
        self._shm_arenas: List[ShmArena] = []
        self._shm_reader: Optional[ShmArena] = None
        self._shm_epoch: Optional[Any] = None
        self._shm_windows = 0
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
        shm_bundle = None
        if context.get_start_method() == "fork" and shm_enabled():
            if self._shm_session is None or self._shm_session.closed:
                self._shm_session = ShmSession()
            if not self._shm_arenas:
                # One arena set per backend lifetime: pool restarts
                # re-fork against the same arenas (restarts only happen
                # with no work in flight, so no reader can hold stale
                # views).  A forked replica arrives here with a cleared
                # data plane (_reset_shm_after_fork) but the *inherited*
                # session directory, so the arenas it builds — pid-unique
                # names — are still reclaimed by the original parent's
                # rmtree even if this replica is killed outright.
                serial = next(_ARENA_SERIAL)
                prefix = f"pool-{os.getpid()}-{serial}"
                self._shm_arenas = [
                    ShmArena(self._shm_session, f"{prefix}-w{index}")
                    for index in range(self._workers)
                ]
                self._shm_reader = ShmArena.reader(self._shm_session)
                # lock=False: the parent is the only writer (and only
                # between windows); workers just read the counter.
                self._shm_epoch = context.Value("Q", 0, lock=False)
            # A fresh claim counter per pool generation: lazily spawned
            # workers each take the next arena slot.
            claim = context.Value("i", 0)
            shm_bundle = (self._shm_arenas, self._shm_epoch, claim)
        return ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=context,
            initializer=_install_worker_state,
            initargs=(dict(_SHARED_SAMPLING_STATE), shm_bundle),
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

    # -- the shared-memory data plane -----------------------------------

    @property
    def payload_transport(self) -> str:
        """``"shm"`` when the arena data plane will carry chunk payloads,
        ``"pickle"`` otherwise (``REPRO_SHM=0`` or no ``fork``)."""
        return "shm" if shm_enabled() else "pickle"

    @contextlib.contextmanager
    def _transport_window(self) -> Iterator[None]:
        """Scope during which arena slices handed to this thread stay valid.

        Counts as in-flight work (so a concurrent publish never retires
        the pool — and with it the arenas — mid-assembly) and bumps the
        shared epoch when the *last* concurrent window closes, signalling
        workers to rewind their arenas before the next write.
        """
        with self._executor_lock:
            self._inflight += 1
            self._shm_windows += 1
        try:
            yield
        finally:
            with self._executor_lock:
                self._inflight -= 1
                self._shm_windows -= 1
                if self._shm_windows == 0 and self._shm_epoch is not None:
                    self._shm_epoch.value += 1

    def _collect_packed(self, num_nodes: int, tasks: Sequence[Tuple]) -> PackedRRSets:
        """Assemble chunk results, moving payloads through the arena.

        Workers return :class:`~repro.backend.shm.ShmSlice` descriptors
        (or raw arrays on the shortcut/fallback paths); the parent turns
        descriptors into zero-copy views and concatenates — all inside the
        transport window, so nothing can overwrite the views first.  The
        assembled batch owns fresh arrays and outlives the window safely.
        """
        if not shm_enabled():
            return super()._collect_packed(num_nodes, tasks)
        with self._transport_window():
            chunks = self.map_chunks(_sample_rr_chunk_shm, tasks)
            reader = self._shm_reader
            resolved = [
                tuple(reader.read(chunk)) if isinstance(chunk, ShmSlice) else chunk
                for chunk in chunks
            ]
            return PackedRRSets.from_chunks(num_nodes, resolved)

    def _reset_shm_after_fork(self) -> None:
        """Fork hygiene: a replica must not touch its parent's data plane.

        Called when a shard adopts its forked service replica
        (:func:`repro.cluster.worker.shard_main`).  The parent's arenas,
        reader and epoch belong to the parent's pool; the *session* is
        kept — its finalizer is pid-guarded, and building this replica's
        own arenas inside the inherited directory keeps them under the
        original parent's crash cleanup.
        """
        self._shm_arenas = []
        self._shm_reader = None
        self._shm_epoch = None
        self._shm_windows = 0

    def _teardown_shm(self) -> None:
        """Drop arenas and remove the session directory (owner only)."""
        for arena in self._shm_arenas:
            arena.close()
        if self._shm_reader is not None:
            self._shm_reader.close()
        self._shm_arenas = []
        self._shm_reader = None
        self._shm_epoch = None
        session, self._shm_session = self._shm_session, None
        if session is not None:
            session.close()

    def close(self) -> None:
        """Shut the pool down and release this backend's shared payloads."""
        with self._executor_lock:
            _discard_published_tokens(self._published)
            self._executor_tokens = frozenset()
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        with self._executor_lock:
            self._teardown_shm()

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
