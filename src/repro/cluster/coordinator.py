"""The cluster coordinator: the service-executor surface over shard fan-out.

:class:`ClusterCoordinator` implements the executor contract the rest of
the system already speaks — ``execute`` / ``execute_batch`` / ``stats`` /
``close`` — on top of long-lived :mod:`~repro.cluster.worker` shard
processes.  It *is* the wrapped :class:`~repro.service.OctopusService`'s
middleware stack (:meth:`~repro.service.OctopusService.over`) ending in a
routing handler instead of the local backend, so it drops into
:class:`~repro.server.OctopusHTTPServer` and the CLI exactly where
:class:`~repro.service.OctopusService` or
:class:`~repro.service.ConcurrentOctopusService` would.

Execution model
---------------

The coordinator forks ``shards`` worker processes at construction; each
inherits the fully built service (graph, indexes, middleware) copy-on-write
and owns a contiguous **node range** of the graph.  Requests then take one
of two paths:

* **Routing** — user-affine queries (suggestion, path exploration) go to
  the shard owning the resolved user's node range, so mutable per-user
  index state (delayed sketch materialization) accumulates only on the
  owner; everything else load-balances round-robin over live shards.
  Every shard replica is seed-identical to the single-process service, so
  the response bytes do not depend on the chosen shard.
* **Distributed max-cover** — targeted-IM queries fan out: the
  coordinator runs the ordinary targeted handler on its own replica with
  the engine's one replaceable step — sample + greedy cover
  (:data:`repro.core.targeted.CoverStep`) — swapped for the shard
  exchange.  That step builds the exact chunk plan
  (:func:`repro.backend.base.rr_chunk_plan`) the single-process backend
  would build over the roots the engine drew, hands each shard a
  contiguous chunk range to sample and hold resident, then runs the greedy
  seed-selection loop over the wire — each round every shard reports its
  marginal-gain
  (coverage) vector, the coordinator picks the argmax with the serial tie-break rule
  (:func:`repro.cluster.merge.pick_cover_seed`) and broadcasts the chosen
  seed.  Because chunk streams are keyed by chunk index — never by shard
  — the sampled batch, the greedy selections and every float in the
  response are **byte-identical** for 1, 2 or 4 shards and to the
  single-process service: shard count is a pure execution detail.

Failure model
-------------

Every wait is bounded.  A shard that dies mid-request surfaces as a
structured ``internal_error`` envelope within the pipe timeout (never a
hang, never an unparseable body); later requests route around dead shards
and :meth:`health` reports the cluster degraded.  A distributed query that
loses a shard mid-session falls back to whole-query routing on a live
replica — which computes the same bytes — before giving up.
"""

from __future__ import annotations

import glob
import itertools
import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.base import DEFAULT_RR_CHUNK_SIZE, rr_chunk_plan, seed_to_sequence
from repro.backend.shm import (
    ShmArena,
    ShmSession,
    ShmSlice,
    default_arena_bytes,
    shm_enabled,
)
from repro.cluster.merge import (
    merge_coverage,
    merge_first_seen,
    partition_contiguous,
    pick_cover_seed,
)
from repro.cluster.protocol import (
    ChunkSpec,
    CoverInit,
    CoverRound,
    DropSession,
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
from repro.service.dispatcher import OctopusService, RequestLike
from repro.service.requests import (
    ExplorePathsRequest,
    ServiceRequest,
    StatsRequest,
    SuggestKeywordsRequest,
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
        node_range: Tuple[int, int],
        arena: Optional[ShmArena] = None,
    ) -> None:
        self.shard_id = shard_id
        self.process = process
        self.connection = connection
        self.node_range = node_range
        self.arena = arena
        self.lock = threading.Lock()
        self.dead_reason = ""
        self._alive = True
        self._sequence = 0
        self._abandoned: set = set()

    def resolve(self, value: Any) -> Any:
        """Materialise any :class:`ShmSlice` descriptors in a reply value.

        The resolved arrays are zero-copy read-only views into the shard's
        arena; they stay valid exactly until the next command is sent to
        this shard (the worker rewinds its arena at the start of every
        cover command), which the one-command-in-flight protocol plus the
        merge arithmetic's fresh output arrays make safe.
        """
        if self.arena is None:
            return value
        if isinstance(value, ShmSlice):
            return self.arena.read(value)[0]
        if isinstance(value, dict):
            return {
                key: self.arena.read(entry)[0]
                if isinstance(entry, ShmSlice)
                else entry
                for key, entry in value.items()
            }
        return value

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
                self._abandoned.add(sequence)
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
                return self.resolve(reply.value)
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
        lock_timeout: Optional[float] = None,
    ) -> Any:
        """One lock + send + receive exchange with bounded waits."""
        wait = lock_timeout if lock_timeout is not None else timeout
        if not self.lock.acquire(timeout=wait):
            raise ShardTimeoutError(
                f"shard {self.shard_id} is busy (lock not free within "
                f"{wait:.1f}s)"
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
                self.call(Shutdown(), timeout=timeout, lock_timeout=timeout)
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
    """Sharded multi-process service executor (see module docstring).

    Accepts an :class:`OctopusService` or a bare :class:`Octopus` backend
    (wrapped with *service_kwargs*), like the concurrent executor.  Every
    request runs that service's one middleware stack here, in the
    coordinator process; shard replicas execute only what the stack's
    innermost handler (:meth:`_compute`) sends them.
    """

    def __init__(
        self,
        service: Union[OctopusService, Octopus],
        *,
        shards: int = 2,
        shard_timeout: float = 60.0,
        snapshot_path: Optional[str] = None,
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
        self.closed = False
        # With a snapshot on disk, a dead shard can be respawned from it
        # (see respawn_dead_shards) instead of degrading permanently.
        self.snapshot_path = snapshot_path
        self._respawn_lock = threading.Lock()
        num_nodes = self.service.backend.graph.num_nodes
        node_ranges = partition_contiguous(num_nodes, self.shards)
        context = multiprocessing.get_context("fork")
        self._context = context
        # The shared-memory data plane: one coordinator-owned session
        # directory holding one arena per shard, created *before* the
        # forks so each shard inherits its base mapping.  Ownership stays
        # here — a killed shard cannot leak a segment, and close()
        # reclaims the whole session directory in one sweep.  Each arena
        # must hold one cover reply (two int64 node-length vectors) with
        # generous headroom; larger graphs grow on demand.
        self._shm_session: Optional[ShmSession] = None
        arenas: List[Optional[ShmArena]] = [None] * self.shards
        if shm_enabled():
            self._shm_session = ShmSession()
            capacity = max(
                default_arena_bytes(), 4 * num_nodes * 8 + 65536
            )
            arenas = [
                ShmArena(self._shm_session, f"shard{shard_id}", capacity)
                for shard_id in range(self.shards)
            ]
        self._handles: List[_ShardHandle] = []
        for shard_id in range(self.shards):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=shard_main,
                args=(
                    child_end,
                    self.service,
                    shard_id,
                    self.shards,
                    node_ranges[shard_id],
                    arenas[shard_id],
                ),
                name=f"octopus-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_end.close()  # the parent keeps only its end
            self._handles.append(
                _ShardHandle(
                    shard_id,
                    process,
                    parent_end,
                    node_ranges[shard_id],
                    arenas[shard_id],
                )
            )
        self._round_robin = itertools.count()
        self._session_ids = itertools.count()
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
        liveness); ``cluster.shard<i>.*`` carries per-shard counters
        (skipped, not blocked on, when a shard is busy with a long
        exchange).  ``service.*`` / ``cache.*`` are the serving stack's
        own counters (every request is served here).  When shard replicas
        have served routed traffic, their per-service latency histograms are
        merged key-wise (bucket counts sum exactly; percentiles recompute over
        the merged distribution) and re-emitted under
        ``cluster.shards.service.*`` so ``/stats`` shows fleet-wide
        latency, not just the coordinator's own.
        """
        stats: Dict[str, Any] = dict(self.service.stats())
        stats["executor.kind"] = "cluster"
        stats["executor.workers"] = float(self.shards)
        stats["executor.shards"] = float(self.shards)
        stats["executor.payload_transport"] = (
            "shm" if self._shm_session is not None else "pickle"
        )
        alive = 0
        shard_snapshots: List[Dict[str, float]] = []
        for handle in self._handles:
            prefix = f"cluster.shard{handle.shard_id}"
            if not handle.is_alive():
                stats[f"{prefix}.alive"] = 0.0
                continue
            alive += 1
            stats[f"{prefix}.alive"] = 1.0
            try:
                info = handle.call(
                    ShardStatsCmd(),
                    timeout=min(self.shard_timeout, 5.0),
                    lock_timeout=1.0,
                )
            except ShardError:
                continue  # busy or just died; liveness above still stands
            stats[f"{prefix}.commands"] = float(info["shard.commands"])
            stats[f"{prefix}.requests"] = float(info["shard.requests"])
            shard_snapshots.append(info)
        stats["executor.shards_alive"] = float(alive)
        for key, value in aggregate_latency_keys(
            shard_snapshots, key_prefix="service."
        ).items():
            stats[f"cluster.shards.{key}"] = value
        return stats

    def health(self) -> Dict[str, Any]:
        """Per-shard liveness for ``/healthz`` (degraded when any is dead)."""
        liveness = []
        alive = 0
        for handle in self._handles:
            ok = handle.is_alive()
            alive += int(ok)
            entry: Dict[str, Any] = {
                "shard": handle.shard_id,
                "alive": bool(ok),
                "node_range": list(handle.node_range),
            }
            if not ok and handle.dead_reason:
                entry["reason"] = handle.dead_reason
            liveness.append(entry)
        return {
            "kind": "cluster",
            "shards": self.shards,
            "shards_alive": alive,
            "degraded": alive < self.shards,
            "shard_liveness": liveness,
        }

    def respawn_dead_shards(self) -> List[int]:
        """Respawn every dead shard from the snapshot; returns their ids.

        Requires ``snapshot_path`` at construction.  Each respawned child
        forks from the coordinator — inheriting the dead shard's arena
        base mapping exactly as at first construction — restores its
        replica from the snapshot (:func:`repro.snapshot.load_snapshot`,
        byte-identical to the replica it replaces), and takes over the
        dead shard's node range; distributed chunk ranges are assigned
        positionally over the handle list, so chunk-range ownership
        restores automatically.  Boot is confirmed with a bounded ping
        before the new handle enters rotation, so a snapshot that fails
        to restore surfaces as a :class:`ShardError` (and the shard stays
        dead) rather than a half-live shard.  Once every shard is alive
        again, :meth:`health` reports ``degraded: False`` and the
        distributed max-cover path resumes.
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
                self._reclaim_arena(handle.arena)
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
                        handle.node_range,
                        handle.arena,
                    ),
                    name=f"octopus-shard-{handle.shard_id}",
                    daemon=False,
                )
                process.start()
                child_end.close()
                fresh = _ShardHandle(
                    handle.shard_id,
                    process,
                    parent_end,
                    handle.node_range,
                    handle.arena,
                )
                try:
                    fresh.call(Ping(), timeout=self.shard_timeout)
                except ShardError:
                    fresh.shutdown(timeout=2.0)
                    raise
                self._handles[index] = fresh
                respawned.append(handle.shard_id)
        return respawned

    @staticmethod
    def _reclaim_arena(arena: Optional[ShmArena]) -> None:
        """Clear a dead shard's leftover grow-files before its successor
        inherits the arena: segment creation is ``O_EXCL``, so a stale
        ``.g<n>`` file would push the respawned writer onto the inline
        pickle fallback.  The session directory is coordinator-owned, so
        unlinking here is safe — the shard is dead and its replies are
        out of rotation."""
        if arena is None:
            return
        arena.reset()
        pattern = os.path.join(
            arena.session_path, arena.base_segment + ".g*"
        )
        for path in glob.glob(pattern):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover — cleanup is best-effort
                pass

    def close(self) -> None:
        """Drain and stop every shard process; idempotent."""
        if self.closed:
            return
        self.closed = True
        for handle in self._handles:
            handle.shutdown(timeout=min(self.shard_timeout, 10.0))
        # Shards are down (or terminated): reclaim the data plane.
        for handle in self._handles:
            if handle.arena is not None:
                handle.arena.close()
        if self._shm_session is not None:
            self._shm_session.close()

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

    def _owner_shard(self, node: int) -> Optional[_ShardHandle]:
        """The shard whose node range contains *node*."""
        for handle in self._handles:
            low, high = handle.node_range
            if low <= node < high:
                return handle
        return None

    def _pick_routed(self, typed: ServiceRequest) -> Optional[_ShardHandle]:
        """Owner shard for user-affine requests, else round-robin over live
        shards; ``None`` when the whole cluster is down."""
        if isinstance(typed, (SuggestKeywordsRequest, ExplorePathsRequest)):
            try:
                node = self.service.backend.resolve_user(typed.user)
            except Exception:  # noqa: BLE001 — shard produces the exact error
                node = None
            if node is not None:
                owner = self._owner_shard(node)
                if owner is not None and owner.is_alive():
                    return owner
        live = self._live_handles()
        if not live:
            return None
        return live[next(self._round_robin) % len(live)]

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _distributable(self, typed: ServiceRequest) -> bool:
        """Whether this request takes the distributed max-cover path.

        Targeted IM fans out; a degraded cluster routes instead, because
        the fan-out needs every shard's chunk range.
        """
        if not isinstance(typed, TargetedInfluencersRequest):
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
            # A shard died or stalled mid-session.  Whole-query routing on
            # a live replica computes the identical bytes.
        handle = self._pick_routed(typed)
        if handle is None:
            return ServiceResponse.failure(
                typed.service, "internal_error", "no live shards in the cluster"
            )
        trace = current_trace()
        try:
            with trace_stage(f"shard{handle.shard_id}.roundtrip"):
                return handle.call(
                    ExecuteRequest(
                        typed,
                        request_id=trace.request_id
                        if trace is not None
                        else None,
                    ),
                    timeout=self.shard_timeout,
                )
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
    # Distributed targeted IM (the fan-out max-cover pipeline)
    # ------------------------------------------------------------------

    def _distributed_cover(
        self,
        engine: TargetedKeywordIM,
        gamma: np.ndarray,
        roots: List[int],
        k: int,
    ) -> Tuple[List[int], float]:
        """The fanned-out :data:`~repro.core.targeted.CoverStep`.

        Builds, from the engine's stream, the chunk plan the local step
        would sample; shards sample their contiguous chunk ranges and
        answer greedy cover rounds; the merge arithmetic
        (:mod:`repro.cluster.merge`) recombines them exactly.  Raises
        :class:`ShardError` when the exchange fails.
        """
        num_sets = len(roots)
        num_nodes = engine.graph.num_nodes
        plan = rr_chunk_plan(
            num_sets, DEFAULT_RR_CHUNK_SIZE, seed_to_sequence(engine._rng), roots
        )
        session = f"cover-{next(self._session_ids)}"
        handles = self._handles
        bounds = partition_contiguous(len(plan), len(handles))
        sample_commands = [
            SampleShard(
                session=session,
                gamma=gamma,
                chunks=tuple(
                    ChunkSpec(
                        count=count,
                        seed=child,
                        roots=tuple(chunk_roots)
                        if chunk_roots is not None
                        else None,
                    )
                    for count, child, chunk_roots in plan[low:high]
                ),
                kernel=engine.rr_kernel,
            )
            for low, high in bounds
        ]
        acquired: List[_ShardHandle] = []
        try:
            for handle in handles:
                if not handle.lock.acquire(timeout=self.shard_timeout):
                    raise ShardTimeoutError(
                        f"shard {handle.shard_id} is busy (lock not free "
                        f"within {self.shard_timeout:.1f}s)"
                    )
                acquired.append(handle)
            sample_infos = self._exchange_all(handles, sample_commands)
            # Place each shard's member array inside the global
            # concatenation: bases are prefix sums over shard order.
            total_members = 0
            bases: List[int] = []
            for info in sample_infos:
                bases.append(total_members)
                total_members += int(info["num_members"])
            init_replies = self._exchange_all(
                handles,
                [
                    CoverInit(
                        session=session, base=base, total_members=total_members
                    )
                    for base in bases
                ],
            )
            total_coverage = merge_coverage(
                [reply["coverage"] for reply in init_replies]
            )
            first_seen = merge_first_seen(
                [reply["first_seen"] for reply in init_replies]
            )
            seeds: List[int] = []
            covered_total = 0
            for _ in range(min(k, num_nodes)):
                best = pick_cover_seed(total_coverage, first_seen)
                if best is None:
                    break
                seeds.append(best)
                round_replies = self._exchange_all(
                    handles,
                    [CoverRound(session=session, seed_node=best)] * len(handles),
                )
                total_coverage = merge_coverage(
                    [reply["coverage"] for reply in round_replies]
                )
                covered_total = sum(
                    int(reply["covered"]) for reply in round_replies
                )
        finally:
            # Even when the fan-out aborts (a shard died mid-session and
            # the caller falls back to routing), the survivors must not
            # keep the session's packed arrays resident forever.
            self._drop_session(acquired, session)
            for handle in acquired:
                handle.lock.release()
        # greedy_max_cover's n-scaled spread, from the same integers.
        return seeds, num_nodes * float(covered_total) / num_sets

    def _exchange_all(
        self, handles: Sequence[_ShardHandle], commands: Sequence[Any]
    ) -> List[Any]:
        """Send to every shard, then collect every reply (locks held).

        Sends go out before any receive so shards compute concurrently;
        each receive is individually bounded by the shard timeout.
        """
        started = time.perf_counter()
        sequences = [
            handle.send_locked(command)
            for handle, command in zip(handles, commands)
        ]
        replies = [
            handle.receive_locked(sequence, self.shard_timeout)
            for handle, sequence in zip(handles, sequences)
        ]
        record_stage("cluster.exchange", time.perf_counter() - started)
        return replies

    def _drop_session(
        self, handles: Sequence[_ShardHandle], session: str
    ) -> None:
        """Best-effort session cleanup on every still-live shard."""
        for handle in handles:
            if not handle.is_alive():
                continue
            try:
                sequence = handle.send_locked(DropSession(session=session))
                handle.receive_locked(sequence, min(self.shard_timeout, 5.0))
            except ShardError:
                continue

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
