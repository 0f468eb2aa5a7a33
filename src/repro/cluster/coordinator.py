"""The cluster coordinator: forked service replicas behind the one stack.

:class:`ClusterCoordinator` implements the executor contract the rest of
the system already speaks — ``execute`` / ``execute_batch`` / ``stats`` /
``close`` — on top of long-lived :mod:`~repro.cluster.worker` shard
processes.  It *is* the wrapped :class:`~repro.service.OctopusService`'s
middleware stack (:meth:`~repro.service.OctopusService.over`) ending in a
routing handler instead of the local backend, so it drops into
:class:`~repro.server.OctopusHTTPServer`, the asyncio gateway and the CLI
exactly where :class:`~repro.service.OctopusService` would.  It backs both
forked executors of ``octopus serve``: ``--executor processes`` is
``fan_out=False`` and ``--executor cluster`` is ``fan_out=True``.

Execution model
---------------

The coordinator forks ``shards`` worker processes at construction; each
inherits the fully built service (graph, indexes, middleware) copy-on-write
and is a whole-query replica.  Requests then take one of two paths:

* **Routing** — a request is computed whole on one replica: the first
  live shard whose pipe lock is free, else round-robin over the live
  shards.  A cheap request therefore never queues behind a long one while
  another replica is idle.  Every replica is seed-identical to the
  single-process service, so the response bytes do not depend on the
  chosen shard.
* **Fan-out sampling** (``fan_out=True`` only) — targeted-IM queries fan
  out: the coordinator runs the ordinary targeted handler on its own
  replica with the engine's one replaceable step — sample + greedy cover
  (:data:`repro.core.targeted.CoverStep`) — swapped for the shard
  exchange.  That step draws the batch key from the engine stream as the
  local step does, splits the batch's set range into one contiguous
  range per shard (:func:`repro.backend.base.partition_contiguous`),
  sends each shard one ``SampleShard`` for its range of set indices and
  roots, concatenates the returned batches in shard order and runs the
  ordinary
  :meth:`~repro.propagation.rrsets.RRSetCollection.greedy_max_cover` on
  them.  Because every RR set is keyed by the batch key and its global
  index — never by shard — the sampled batch, the greedy selections and
  every float in the response are **byte-identical** for 1, 2 or 4
  shards and to the single-process service: shard count is a pure
  execution detail.  Each shard's packed batch comes back pickled in its
  reply frame.  With ``fan_out=False`` every request, ``targeted``
  included, is routed.

Failure model
-------------

Every wait is bounded.  A shard that dies mid-request surfaces as a
structured ``internal_error`` envelope within the pipe timeout (never a
hang, never an unparseable body); later requests route around dead shards
and :meth:`health` reports the executor degraded.  A distributed query
that loses a shard mid-fan-out falls back to whole-query routing on a live
replica — which computes the same bytes — before giving up; the replies
still owed by the other shards of that fan-out are discarded when they
arrive, so the survivors stay in step.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.base import draw_batch_key, partition_contiguous
from repro.cluster.protocol import (
    ExecuteRequest,
    Ping,
    SampleShard,
    ShardStatsCmd,
    Shutdown,
)
from repro.cluster.worker import shard_main, shard_respawn_main
from repro.core.octopus import Octopus
from repro.obs.histogram import aggregate_latency_keys
from repro.obs.trace import current_trace, record_stage, stage as trace_stage
from repro.core.targeted import TargetedKeywordIM
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection
from repro.service.dispatcher import OctopusService, RequestLike
from repro.service.requests import (
    ServiceRequest,
    StatsRequest,
    TargetedInfluencersRequest,
)
from repro.service.responses import ServiceResponse
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "ClusterCoordinator",
    "ShardCommandError",
    "ShardDeadError",
    "ShardError",
    "ShardTimeoutError",
    "partition_contiguous",
]


class ShardError(Exception):
    """Base of shard-communication failures (never leaves the coordinator
    as an exception — callers receive structured envelopes)."""


class ShardDeadError(ShardError):
    """The shard process exited or its pipe closed."""


class ShardTimeoutError(ShardError):
    """The shard did not answer (or free its pipe) within the bound."""


class ShardCommandError(ShardError):
    """The shard answered, but with a protocol-level error reply."""


class _ShardHandle:
    """Parent-side endpoint of one shard: pipe, process, lock, liveness.

    The pipe carries ``(sequence, ...)`` frames; a bounded wait that
    expires records its sequence as abandoned so the late reply is
    discarded instead of being matched to the next command — one slow
    answer can never poison the exchanges that follow.
    """

    def __init__(
        self,
        shard_id: int,
        process: multiprocessing.Process,
        connection,
    ) -> None:
        self.shard_id = shard_id
        self.process = process
        self.connection = connection
        self.lock = threading.Lock()
        self.dead_reason = ""
        self._alive = True
        self._sequence = 0
        self._abandoned: set = set()

    def abandon(self, sequence: int) -> None:
        """Discard the reply to *sequence* whenever it arrives."""
        self._abandoned.add(sequence)

    def is_alive(self) -> bool:
        """Liveness: not marked dead *and* the process is still running."""
        if not self._alive:
            return False
        if not self.process.is_alive():
            self.mark_dead("process exited")
            return False
        return True

    def mark_dead(self, reason: str) -> None:
        """Take the shard out of rotation (idempotent, keeps first cause)."""
        self._alive = False
        if not self.dead_reason:
            self.dead_reason = reason

    # -- locked-pipe primitives (caller holds ``self.lock``) ------------

    def send_locked(self, command: Any) -> int:
        """Ship one command frame; returns its sequence number."""
        if not self.is_alive():
            raise ShardDeadError(
                f"shard {self.shard_id} is dead ({self.dead_reason})"
            )
        self._sequence += 1
        sequence = self._sequence
        try:
            self.connection.send((sequence, command))
        except (BrokenPipeError, OSError) as error:
            self.mark_dead(f"pipe send failed: {error}")
            raise ShardDeadError(
                f"shard {self.shard_id} died while receiving a command"
            ) from error
        return sequence

    def receive_locked(self, sequence: int, timeout: float) -> Any:
        """Wait (bounded) for the reply to *sequence*; discard stale ones."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # The reply may still arrive; remember to discard it.
                self.abandon(sequence)
                raise ShardTimeoutError(
                    f"shard {self.shard_id} did not answer within "
                    f"{timeout:.1f}s"
                )
            try:
                if not self.connection.poll(remaining):
                    continue  # deadline re-checked at the top
                frame_sequence, reply = self.connection.recv()
            except (EOFError, OSError) as error:
                self.mark_dead(f"pipe closed: {type(error).__name__}")
                raise ShardDeadError(
                    f"shard {self.shard_id} died mid-request"
                ) from error
            if frame_sequence == sequence:
                if not reply.ok:
                    raise ShardCommandError(reply.error)
                return reply.value
            if frame_sequence in self._abandoned:
                self._abandoned.discard(frame_sequence)
                continue  # late answer to a timed-out exchange
            self.mark_dead(
                f"protocol desync (expected frame {sequence}, "
                f"got {frame_sequence})"
            )
            raise ShardDeadError(f"shard {self.shard_id} desynchronised")

    # -- whole exchanges -------------------------------------------------

    def call(
        self,
        command: Any,
        timeout: float,
        *,
        held: bool = False,
    ) -> Any:
        """One lock + send + receive exchange with bounded waits.

        With *held* the caller already owns the pipe lock; it is released
        here either way.
        """
        if not held and not self.lock.acquire(timeout=timeout):
            raise ShardTimeoutError(
                f"shard {self.shard_id} is busy (lock not free within "
                f"{timeout:.1f}s)"
            )
        try:
            sequence = self.send_locked(command)
            return self.receive_locked(sequence, timeout)
        finally:
            self.lock.release()

    def shutdown(self, timeout: float) -> None:
        """Graceful stop: ask, join, then terminate if it lingers."""
        if self._alive and self.process.is_alive():
            try:
                self.call(Shutdown(), timeout=timeout)
            except ShardError:
                pass  # we are tearing it down either way
        self._alive = False
        try:
            self.connection.close()
        except OSError:  # pragma: no cover — close is best-effort
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)


class ClusterCoordinator:
    """Forked-replica service executor (see module docstring).

    Accepts an :class:`OctopusService` or a bare :class:`Octopus` backend
    (wrapped with *service_kwargs*).  Every request runs that service's one
    middleware stack here, in the coordinator process; shard replicas
    execute only what the stack's innermost handler (:meth:`_compute`)
    sends them.  *fan_out* selects whether targeted queries are sampled
    across every shard (``--executor cluster``) or routed whole like every
    other request (``--executor processes``).
    """

    def __init__(
        self,
        service: Union[OctopusService, Octopus],
        *,
        shards: int = 2,
        shard_timeout: float = 60.0,
        snapshot_path: Optional[str] = None,
        fan_out: bool = True,
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
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValidationError(
                "the cluster executor needs the 'fork' start method "
                "(POSIX only)"
            )
        self.shards = int(shards)
        check_positive(self.shards, "shards")
        self.shard_timeout = float(shard_timeout)
        check_positive(self.shard_timeout, "shard_timeout")
        self.fan_out = bool(fan_out)
        self.kind = "cluster" if self.fan_out else "processes"
        self.closed = False
        # With a snapshot on disk, a dead shard can be respawned from it
        # (see respawn_dead_shards) instead of degrading permanently.
        self.snapshot_path = snapshot_path
        self._respawn_lock = threading.Lock()
        context = multiprocessing.get_context("fork")
        self._context = context
        self._handles: List[_ShardHandle] = []
        for shard_id in range(self.shards):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=shard_main,
                args=(child_end, self.service, shard_id, self.shards),
                name=f"octopus-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_end.close()  # the parent keeps only its end
            self._handles.append(_ShardHandle(shard_id, process, parent_end))
        self._round_robin = itertools.count()
        self._front = self.service.over(self._compute)

    # ------------------------------------------------------------------
    # The executor surface
    # ------------------------------------------------------------------

    def execute(self, request: RequestLike) -> ServiceResponse:
        """Serve one request across the cluster; never raises."""
        if self.closed:
            return self.service.refuse(request)
        return self._front.execute(request)

    def execute_batch(
        self, requests: Sequence[RequestLike]
    ) -> List[ServiceResponse]:
        """Serve many requests, sharing duplicates
        (:meth:`OctopusService.execute_batch`)."""
        if self.closed:
            return [self.service.refuse(request) for request in requests]
        return self._front.execute_batch(requests)

    def stats(self) -> Dict[str, Any]:
        """Coordinator + per-shard statistics, self-describing.

        ``executor.*`` identifies the executor (kind, shard count,
        liveness); ``cluster.shard<i>.*`` carries per-shard counters.
        ``cluster.shard<i>.busy`` is 1.0 when the shard's pipe is in use;
        that shard's counters are then skipped, never waited for.
        ``service.*`` / ``cache.*`` are the serving stack's own counters
        (every request is served here).  When shard replicas
        have served routed traffic, their per-service latency histograms are
        merged key-wise (bucket counts sum exactly; percentiles recompute over
        the merged distribution) and re-emitted under
        ``cluster.shards.service.*`` so ``/stats`` shows fleet-wide
        latency, not just the coordinator's own; the replicas' best-effort
        oracle counters are summed the same way under
        ``cluster.shards.best_effort.*``.
        """
        stats: Dict[str, Any] = dict(self.service.stats())
        stats["executor.kind"] = self.kind
        stats["executor.workers"] = float(self.shards)
        stats["executor.shards"] = float(self.shards)
        alive = 0
        shard_snapshots: List[Dict[str, float]] = []
        for handle in self._handles:
            prefix = f"cluster.shard{handle.shard_id}"
            if not handle.is_alive():
                stats[f"{prefix}.alive"] = 0.0
                continue
            alive += 1
            stats[f"{prefix}.alive"] = 1.0
            # Never wait behind a long exchange: a shard whose pipe is in
            # use reports itself busy instead of its counters.
            busy = not handle.lock.acquire(blocking=False)
            stats[f"{prefix}.busy"] = float(busy)
            if busy:
                continue
            try:
                info = handle.call(
                    ShardStatsCmd(), timeout=min(self.shard_timeout, 5.0), held=True
                )
            except ShardError:
                continue  # just died; liveness above still stands
            stats[f"{prefix}.commands"] = float(info["shard.commands"])
            stats[f"{prefix}.requests"] = float(info["shard.requests"])
            shard_snapshots.append(info)
        stats["executor.shards_alive"] = float(alive)
        for key, value in aggregate_latency_keys(
            shard_snapshots, key_prefix="service."
        ).items():
            stats[f"cluster.shards.{key}"] = value
        for key in ("best_effort.oracle_explores", "best_effort.oracle_memo_hits"):
            stats[f"cluster.shards.{key}"] = sum(
                float(info.get(key, 0.0)) for info in shard_snapshots
            )
        return stats

    def health(self) -> Dict[str, Any]:
        """Per-shard liveness for ``/healthz`` (degraded when any is dead)."""
        liveness = []
        alive = 0
        for handle in self._handles:
            ok = handle.is_alive()
            alive += int(ok)
            entry: Dict[str, Any] = {"shard": handle.shard_id, "alive": bool(ok)}
            if not ok and handle.dead_reason:
                entry["reason"] = handle.dead_reason
            liveness.append(entry)
        return {
            "kind": self.kind,
            "shards": self.shards,
            "shards_alive": alive,
            "degraded": alive < self.shards,
            "shard_liveness": liveness,
        }

    def respawn_dead_shards(self) -> List[int]:
        """Respawn every dead shard from the snapshot; returns their ids.

        Requires ``snapshot_path`` at construction.  Each respawned child
        forks from the coordinator, restores its replica from the snapshot
        (:func:`repro.snapshot.load_snapshot`, byte-identical to the
        replica it replaces), and takes over the dead shard's place in the
        handle list; distributed chunk ranges are assigned positionally
        over that list, so chunk-range ownership restores automatically.  Boot is confirmed with a bounded ping
        before the new handle enters rotation, so a snapshot that fails
        to restore surfaces as a :class:`ShardError` (and the shard stays
        dead) rather than a half-live shard.  Once every shard is alive
        again, :meth:`health` reports ``degraded: False`` and the
        fan-out path resumes.
        """
        if self.snapshot_path is None:
            raise ValidationError(
                "respawning needs a snapshot: construct the coordinator "
                "with snapshot_path= (see `octopus snapshot`)"
            )
        respawned: List[int] = []
        with self._respawn_lock:
            if self.closed:
                return respawned
            for index, handle in enumerate(self._handles):
                if handle.is_alive():
                    continue
                # Reap the dead process and retire its pipe endpoint.
                try:
                    handle.connection.close()
                except OSError:
                    pass
                handle.process.join(timeout=2.0)
                parent_end, child_end = self._context.Pipe(duplex=True)
                # Unlike the first fork, the respawned shard must *build*
                # its replica (snapshot restore re-runs the index build),
                # and a pooled execution_backend forks its own workers for
                # that — which a daemonic child may not do.  Non-daemon is
                # safe here: the serve loop exits on pipe EOF the moment
                # the coordinator goes away.
                process = self._context.Process(
                    target=shard_respawn_main,
                    args=(
                        child_end,
                        self.snapshot_path,
                        handle.shard_id,
                        self.shards,
                    ),
                    name=f"octopus-shard-{handle.shard_id}",
                    daemon=False,
                )
                process.start()
                child_end.close()
                fresh = _ShardHandle(handle.shard_id, process, parent_end)
                try:
                    fresh.call(Ping(), timeout=self.shard_timeout)
                except ShardError:
                    fresh.shutdown(timeout=2.0)
                    raise
                self._handles[index] = fresh
                respawned.append(handle.shard_id)
        return respawned

    def close(self) -> None:
        """Drain and stop every shard process; idempotent."""
        if self.closed:
            return
        self.closed = True
        for handle in self._handles:
            handle.shutdown(timeout=min(self.shard_timeout, 10.0))

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- convenience delegation (drop-in dispatcher, like the executors) --

    @property
    def backend(self) -> Octopus:
        """The compute backend of the wrapped (coordinator-side) service."""
        return self.service.backend

    @property
    def cache(self):
        """The wrapped service's result cache (the only one consulted)."""
        return self.service.cache

    @property
    def metrics(self):
        """The wrapped service's metrics collector."""
        return self.service.metrics

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _live_handles(self) -> List[_ShardHandle]:
        return [handle for handle in self._handles if handle.is_alive()]

    def _pick_routed(self) -> Tuple[Optional[_ShardHandle], bool]:
        """The routing rule: the first live shard whose pipe lock is free,
        returned with that lock held, else round-robin over live shards
        (the caller waits for the lock); ``(None, False)`` when the whole
        executor is down."""
        live = self._live_handles()
        for handle in live:
            if handle.lock.acquire(blocking=False):
                return handle, True
        if not live:
            return None, False
        return live[next(self._round_robin) % len(live)], False

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _distributable(self, typed: ServiceRequest) -> bool:
        """Whether this request takes the fan-out path.

        Targeted IM fans out when *fan_out* is on; a degraded cluster routes
        instead, because the fan-out needs every shard's chunk range.
        """
        if not self.fan_out or not isinstance(typed, TargetedInfluencersRequest):
            return False
        return all(handle.is_alive() for handle in self._handles)

    def _compute(self, typed: ServiceRequest) -> ServiceResponse:
        """The stack's innermost handler: live stats, fan-out, or routing."""
        if isinstance(typed, StatsRequest):
            # Live cluster-wide counters, read here rather than on a shard.
            return ServiceResponse.success(typed.service, self.stats())
        if self._distributable(typed):
            shard_failures: List[ShardError] = []

            def cover(engine, gamma, roots, k):
                try:
                    return self._distributed_cover(engine, gamma, roots, k)
                except ShardError as error:
                    shard_failures.append(error)
                    raise

            response = self.service.handle(typed, cover=cover)
            if not shard_failures:
                return response
            # A shard died or stalled mid-fan-out.  Whole-query routing on
            # a live replica computes the identical bytes.
        trace = current_trace()
        command = ExecuteRequest(
            typed, request_id=trace.request_id if trace is not None else None
        )
        handle, held = self._pick_routed()
        if handle is None:
            return ServiceResponse.failure(
                typed.service, "internal_error", "no live shards in the cluster"
            )
        try:
            with trace_stage(f"shard{handle.shard_id}.roundtrip"):
                return handle.call(command, timeout=self.shard_timeout, held=held)
        except ShardDeadError as error:
            return ServiceResponse.failure(
                typed.service,
                "internal_error",
                f"shard {handle.shard_id} died while serving the request: "
                f"{error}",
            )
        except ShardTimeoutError as error:
            return ServiceResponse.failure(
                typed.service,
                "internal_error",
                f"shard {handle.shard_id} did not answer in time: {error}",
            )
        except ShardCommandError as error:
            return ServiceResponse.failure(
                typed.service,
                "internal_error",
                f"shard {handle.shard_id} failed: {error}",
            )

    # ------------------------------------------------------------------
    # Distributed targeted IM (shards sample, the coordinator covers)
    # ------------------------------------------------------------------

    def _distributed_cover(
        self,
        engine: TargetedKeywordIM,
        gamma: np.ndarray,
        roots: np.ndarray,
        k: int,
    ) -> Tuple[List[int], float]:
        """The fanned-out :data:`~repro.core.targeted.CoverStep`.

        Draws the batch key from the engine's stream as the local step
        would; each shard with a non-empty contiguous range of the batch's
        sets samples them and returns the packed batch; the coordinator
        concatenates the batches in shard order (set order) and runs the
        same greedy cover as :func:`~repro.core.targeted.sample_and_cover`.
        Raises :class:`ShardError` when the exchange fails.
        """
        key = draw_batch_key(engine._rng)
        handles: List[_ShardHandle] = []
        commands: List[SampleShard] = []
        for handle, (start, stop) in zip(
            self._handles, partition_contiguous(len(roots), len(self._handles))
        ):
            if start == stop:
                continue
            handles.append(handle)
            commands.append(
                SampleShard(
                    gamma=gamma,
                    key=key,
                    first=start,
                    roots=roots[start:stop],
                )
            )
        acquired: List[_ShardHandle] = []
        try:
            for handle in handles:
                if not handle.lock.acquire(timeout=self.shard_timeout):
                    raise ShardTimeoutError(
                        f"shard {handle.shard_id} is busy (lock not free "
                        f"within {self.shard_timeout:.1f}s)"
                    )
                acquired.append(handle)
            chunks = self._exchange_all(handles, commands)
        finally:
            for handle in acquired:
                handle.lock.release()
        packed = PackedRRSets.from_chunks(engine.graph.num_nodes, chunks)
        return RRSetCollection(engine.graph, packed).greedy_max_cover(k)

    def _exchange_all(
        self, handles: Sequence[_ShardHandle], commands: Sequence[Any]
    ) -> List[Any]:
        """Send to every shard, then collect every reply (locks held).

        Sends go out before any receive so shards compute concurrently;
        each receive is individually bounded by the shard timeout.  When
        a send or a receive fails, every reply still owed is marked
        abandoned on its shard, so a healthy shard's late answer is
        discarded instead of desynchronising its pipe.
        """
        started = time.perf_counter()
        pending: List[Tuple[_ShardHandle, int]] = []
        replies: List[Any] = []
        try:
            for handle, command in zip(handles, commands):
                pending.append((handle, handle.send_locked(command)))
            for handle, sequence in pending:
                replies.append(handle.receive_locked(sequence, self.shard_timeout))
        except BaseException:
            for handle, sequence in pending[len(replies):]:
                handle.abandon(sequence)
            raise
        record_stage("cluster.exchange", time.perf_counter() - started)
        return replies

    # ------------------------------------------------------------------
    # Introspection helpers (tests, benchmarks)
    # ------------------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Full per-shard statistics snapshots (live shards only)."""
        snapshots = []
        for handle in self._handles:
            if not handle.is_alive():
                continue
            try:
                snapshots.append(
                    handle.call(ShardStatsCmd(), timeout=self.shard_timeout)
                )
            except ShardError:
                continue
        return snapshots
