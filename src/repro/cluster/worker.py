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
* a **set-range share** of each targeted fan-out (``--executor cluster``
  only): the shard samples exactly the set-index range the coordinator
  assigns from the batch's key and roots, and returns the packed batch;
  nothing outlives the command.

The worker is single-threaded and command-at-a-time: the coordinator holds
the shard's pipe lock for each exchange, so no locking is needed here.  A
failed command becomes an error :class:`~repro.cluster.protocol.ShardReply`
— the process only exits on ``Shutdown`` or a closed pipe.
"""

from __future__ import annotations

import os
import signal
from typing import Any

import numpy as np

from repro.cluster.protocol import (
    ExecuteRequest,
    Ping,
    SampleShard,
    ShardReply,
    ShardStatsCmd,
    Shutdown,
)
from repro.obs.trace import RequestTrace, trace_context
from repro.propagation.kernels import sample_packed_rr_sets
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


class ShardWorker:
    """Executes shard protocol commands against this process's replica."""

    def __init__(
        self,
        service: OctopusService,
        shard_id: int,
        num_shards: int,
    ) -> None:
        self.service = service
        self.shard_id = int(shard_id)
        self.num_shards = int(num_shards)
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
        """Sample this shard's set range; reply with the packed batch.

        The sets are keyed by the batch key and their global index,
        exactly as a pooled backend's chunk worker samples them — the
        shard boundary adds scheduling, never different randomness.  The
        ``(nodes, offsets)`` pair travels pickled in the reply frame.
        """
        backend = self.service.backend
        graph = backend.graph
        gamma = np.asarray(command.gamma, dtype=np.float64)
        probabilities = backend.edge_weights.edge_probabilities(gamma)
        payload = sample_packed_rr_sets(
            graph, probabilities, command.key, command.first, command.roots
        )
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
) -> None:
    """Entry point of a forked shard process.

    Applies fork hygiene (drop the inherited pool), then serves
    ``(sequence, command)`` frames until ``Shutdown`` or a closed pipe.

    The shard ignores ``SIGINT``: a terminal Ctrl-C hits the whole
    foreground process group, and shards must survive it so the
    coordinator's graceful drain can finish in-flight work and stop them
    through the ``Shutdown`` command (a wedged shard is still covered —
    the coordinator escalates to ``terminate()`` after its bounded join).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _serve_shard(connection, service, shard_id, num_shards)


def shard_respawn_main(
    connection,
    snapshot_path: str,
    shard_id: int,
    num_shards: int,
) -> None:
    """Entry point of a shard respawned from a snapshot.

    Unlike :func:`shard_main`, the replica is not inherited copy-on-write
    from the coordinator: the child rebuilds it from the OCTOSNAP file
    (:func:`repro.snapshot.load_snapshot`), which reconstructs the exact
    constructor inputs and re-runs the seed-keyed index build — so the
    respawned replica answers with the same bytes as the shard it
    replaces.

    A snapshot that fails to load is reported over the pipe as an error
    reply to the coordinator's boot-confirmation ping rather than a silent
    child death, so ``respawn_dead_shards`` surfaces the cause.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.snapshot import load_snapshot

        octopus = load_snapshot(snapshot_path)
        # A pooled execution backend forked workers for the index build;
        # release them cleanly now — the serve loop's fork hygiene would
        # only drop the reference, and a pool re-creates lazily if a
        # routed request ever needs one.
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
    _serve_shard(connection, service, shard_id, num_shards)


def _serve_shard(
    connection,
    service: OctopusService,
    shard_id: int,
    num_shards: int,
) -> None:
    """The shared shard body: fork hygiene, then the command loop.

    Serves ``(sequence, command)`` frames until ``Shutdown`` or a closed
    pipe.
    """
    _fork_hygiene(service)
    worker = ShardWorker(service, shard_id, num_shards)
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
