"""The long-lived shard worker process.

A :class:`ShardWorker` serves one forked replica for the whole server
lifetime:

* a **full service replica**, inherited copy-on-write from the coordinator
  fork, with fork hygiene applied (:func:`_fork_hygiene`: the pooled
  compute backend is dropped).  The coordinator's stack has already
  admitted every request that arrives here, so the replica runs only the
  innermost handler (:meth:`~repro.service.OctopusService.handle`) and
  counts what it served in its own metrics.  Any replica can serve any
  request: the coordinator routes each one to an idle shard;
* a **chunk-range share** of each targeted fan-out (``--executor cluster``
  only): the shard samples exactly the chunks the coordinator assigns
  (per-chunk spawned RNG streams from
  :func:`repro.backend.base.rr_chunk_plan`) and returns the packed batch;
  nothing outlives the command.

The worker is single-threaded and command-at-a-time: the coordinator holds
the shard's pipe lock for each exchange, so no locking is needed here.  A
failed command becomes an error :class:`~repro.cluster.protocol.ShardReply`
— the process only exits on ``Shutdown`` or a closed pipe.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Optional

import numpy as np

from repro.backend.shm import ShmArena
from repro.cluster.protocol import (
    ExecuteRequest,
    Ping,
    SampleShard,
    ShardReply,
    ShardStatsCmd,
    Shutdown,
)
from repro.obs.trace import RequestTrace, trace_context
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import sample_packed_rr_sets
from repro.service.dispatcher import OctopusService
from repro.service.middleware import MetricsMiddleware
from repro.utils.logging import get_logger

_logger = get_logger("cluster.worker")

__all__ = ["ShardWorker", "shard_main", "shard_respawn_main"]


def _fork_hygiene(service: OctopusService) -> None:
    """Make a forked replica safe to serve from.

    Pooled execution backends do not survive a fork (their worker threads
    or processes belong to the parent), so the replica's backend drops its
    executor and lazily re-creates one if needed.  The replica's
    middleware is left as inherited and never runs — replicas execute
    :meth:`OctopusService.handle` only — so a forked cache or rate-limit
    bucket can neither go stale nor spend a second budget.
    """
    execution = service.backend.execution
    if hasattr(execution, "_executor"):
        execution._executor = None
    if hasattr(execution, "_reset_shm_after_fork"):
        # The parent's shared-memory arenas belong to the parent's pool;
        # this replica must build its own (inside the inherited session
        # directory, which keeps crash cleanup with the original owner).
        execution._reset_shm_after_fork()


class ShardWorker:
    """Executes shard protocol commands against this process's replica."""

    def __init__(
        self,
        service: OctopusService,
        shard_id: int,
        num_shards: int,
        arena: Optional[ShmArena] = None,
    ) -> None:
        self.service = service
        self.shard_id = int(shard_id)
        self.num_shards = int(num_shards)
        self.arena = arena
        # Routed requests are timed and folded into the replica's own
        # ServiceMetrics (the coordinator merges them fleet-wide).
        self._measured = MetricsMiddleware(service.metrics)
        self.commands_served = 0
        self.requests_executed = 0

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def handle(self, command: Any) -> ShardReply:
        """Execute one command; never raises (errors become replies)."""
        self.commands_served += 1
        try:
            if isinstance(command, ExecuteRequest):
                return self._handle_execute(command)
            if isinstance(command, SampleShard):
                return self._handle_sample(command)
            if isinstance(command, ShardStatsCmd):
                return self._handle_stats()
            if isinstance(command, Ping):
                return ShardReply(
                    ok=True,
                    value={
                        "shard": self.shard_id,
                        "pid": os.getpid(),
                        "commands": self.commands_served,
                        "requests": self.requests_executed,
                    },
                )
            if isinstance(command, Shutdown):
                return ShardReply(ok=True, value="bye")
            return ShardReply(
                ok=False, error=f"unknown command {type(command).__name__}"
            )
        except Exception as error:  # noqa: BLE001 — the reply is the contract
            return ShardReply(
                ok=False, error=f"{type(error).__name__}: {error}"
            )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _handle_execute(self, command: ExecuteRequest) -> ShardReply:
        """Compute a whole request the coordinator's stack routed here.

        A propagated ``request_id`` (the front-door trace crossed the
        fork boundary inside the command frame) re-activates a shard-side
        trace for the duration, so the replica's log lines carry the id;
        the coordinator stamps the envelope.
        """
        self.requests_executed += 1
        trace = (
            RequestTrace(command.request_id)
            if command.request_id is not None
            else None
        )
        with trace_context(trace):
            response = self._measured(command.request, self.service.handle)
        _logger.debug(
            "shard %d served %s request_id=%s",
            self.shard_id,
            command.request.service,
            command.request_id,
        )
        return ShardReply(ok=True, value=response)

    def _handle_sample(self, command: SampleShard) -> ShardReply:
        """Sample this shard's chunk range; reply with the packed batch.

        Each chunk draws from its own pre-spawned stream, exactly as a
        pooled backend's chunk worker would — the shard boundary adds
        scheduling, never different randomness.  The concatenated
        ``(nodes, offsets)`` pair travels as one
        :class:`~repro.backend.shm.ShmSlice` in the shard's arena, rewound
        first: the coordinator copies the previous reply out before it
        sends another command.  Without an arena, or when the filesystem
        refuses the write, the arrays travel inline.
        """
        backend = self.service.backend
        graph = backend.graph
        gamma = np.asarray(command.gamma, dtype=np.float64)
        probabilities = backend.edge_weights.edge_probabilities(gamma)
        chunks = []
        for spec in command.chunks:
            rng = np.random.default_rng(spec.seed)
            roots = list(spec.roots) if spec.roots is not None else None
            chunks.append(
                sample_packed_rr_sets(
                    graph, probabilities, spec.count, rng, roots, command.kernel
                )
            )
        payload = PackedRRSets.from_chunks(graph.num_nodes, chunks).chunk_payload()
        if self.arena is not None:
            self.arena.reset()
            try:
                return ShardReply(ok=True, value=self.arena.write_arrays(payload))
            except OSError:  # pragma: no cover — filesystem refusal
                pass
        return ShardReply(ok=True, value=payload)

    def _handle_stats(self) -> ShardReply:
        """The replica's serving stats plus shard-local counters."""
        stats = dict(self.service.stats())
        stats["shard.id"] = float(self.shard_id)
        stats["shard.commands"] = float(self.commands_served)
        stats["shard.requests"] = float(self.requests_executed)
        return ShardReply(ok=True, value=stats)


def shard_main(
    connection,
    service: OctopusService,
    shard_id: int,
    num_shards: int,
    arena: Optional[ShmArena] = None,
) -> None:
    """Entry point of a forked shard process.

    Applies fork hygiene (drop the inherited pool), then serves
    ``(sequence, command)`` frames until ``Shutdown`` or a closed pipe.

    *arena* — when the shared-memory data plane is on — is this shard's
    slice of the coordinator-owned session: created before the fork (the
    base mapping is inherited), written here, read (and on close,
    reclaimed) by the coordinator.  The shard never owns a segment, so a
    crashed shard cannot leak one.

    The shard ignores ``SIGINT``: a terminal Ctrl-C hits the whole
    foreground process group, and shards must survive it so the
    coordinator's graceful drain can finish in-flight work and stop them
    through the ``Shutdown`` command (a wedged shard is still covered —
    the coordinator escalates to ``terminate()`` after its bounded join).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _serve_shard(connection, service, shard_id, num_shards, arena)


def shard_respawn_main(
    connection,
    snapshot_path: str,
    shard_id: int,
    num_shards: int,
    arena: Optional[ShmArena] = None,
) -> None:
    """Entry point of a shard respawned from a snapshot.

    Unlike :func:`shard_main`, the replica is not inherited copy-on-write
    from the coordinator: the child rebuilds it from the OCTOSNAP file
    (:func:`repro.snapshot.load_snapshot`), which reconstructs the exact
    constructor inputs and re-runs the seed-keyed index build — so the
    respawned replica answers with the same bytes as the shard it
    replaces.  The arena is the dead shard's own (its base mapping is
    inherited across the fork exactly as at first construction, since the
    coordinator owns the session), so chunk-range ownership resumes
    unchanged.

    A snapshot that fails to load is reported over the pipe as an error
    reply to the coordinator's boot-confirmation ping rather than a silent
    child death, so ``respawn_dead_shards`` surfaces the cause.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.snapshot import load_snapshot

        octopus = load_snapshot(snapshot_path)
        # A pooled execution backend forked workers (and possibly a shm
        # session) for the index build; release them cleanly now — the
        # serve loop's fork hygiene would only drop the reference, and a
        # pool re-creates lazily if a routed request ever needs one.
        octopus.execution.close()
        service = OctopusService(octopus)
    except BaseException as error:  # noqa: BLE001 — reported, then exit
        try:
            sequence, _command = connection.recv()
            connection.send(
                (
                    sequence,
                    ShardReply(
                        ok=False,
                        error=f"snapshot restore failed: "
                        f"{type(error).__name__}: {error}",
                    ),
                )
            )
        except (EOFError, OSError, BrokenPipeError):
            pass
        finally:
            try:
                connection.close()
            except OSError:
                pass
        return
    _serve_shard(connection, service, shard_id, num_shards, arena)


def _serve_shard(
    connection,
    service: OctopusService,
    shard_id: int,
    num_shards: int,
    arena: Optional[ShmArena],
) -> None:
    """The shared shard body: fork hygiene, then the command loop.

    Serves ``(sequence, command)`` frames until ``Shutdown`` or a closed
    pipe.
    """
    _fork_hygiene(service)
    worker = ShardWorker(service, shard_id, num_shards, arena)
    try:
        while True:
            try:
                sequence, command = connection.recv()
            except (EOFError, OSError):
                break  # coordinator went away; nothing left to serve
            reply = worker.handle(command)
            try:
                connection.send((sequence, reply))
            except (BrokenPipeError, OSError):
                break
            if isinstance(command, Shutdown):
                break
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover — close is best-effort
            pass
