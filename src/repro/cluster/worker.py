"""The long-lived shard worker process.

A :class:`ShardWorker` owns one partition of the cluster's state for the
whole server lifetime — unlike a process-pool task, it keeps mutable index
state (delayed sketch materialization, session-local packed RR batches)
resident between requests:

* a **full service replica**, inherited copy-on-write from the coordinator
  fork, with the fork hygiene of the process-pool executor (pooled compute
  backend dropped).  The coordinator's stack has already admitted every
  request that arrives here, so the replica runs only the innermost
  handler (:meth:`~repro.service.OctopusService.handle`) and counts what
  it served in its own metrics;
* a **node-range partition** ``[node_lo, node_hi)``: user-affine queries
  (suggestion, path exploration) are routed here by the coordinator, so
  only this shard ever materializes the influencer-index sketches its
  users touch;
* a **chunk-range share** of each distributed sampling session: the shard
  samples exactly the chunks the coordinator assigns (per-chunk spawned
  RNG streams from :func:`repro.backend.base.rr_chunk_plan`), keeps the
  packed batch resident, and answers greedy cover rounds over it.

The worker is single-threaded and command-at-a-time: the coordinator holds
the shard's pipe lock for each exchange, so no locking is needed here.  A
failed command becomes an error :class:`~repro.cluster.protocol.ShardReply`
— the process only exits on ``Shutdown`` or a closed pipe.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.backend.shm import ShmArena, ShmSlice
from repro.cluster.merge import ShardCoverState
from repro.cluster.protocol import (
    CoverInit,
    CoverRound,
    DropSession,
    EstimateCover,
    ExecuteRequest,
    Ping,
    SampleShard,
    ShardReply,
    ShardStatsCmd,
    Shutdown,
)
from repro.obs.trace import RequestTrace, trace_context
from repro.propagation.kernels import gather_csr_slices
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import sample_packed_rr_sets
from repro.service.concurrent import _adopt_worker_service
from repro.service.dispatcher import OctopusService
from repro.service.middleware import MetricsMiddleware
from repro.utils.logging import get_logger

_logger = get_logger("cluster.worker")

__all__ = ["ShardWorker", "shard_main", "shard_respawn_main"]


class ShardWorker:
    """Executes shard protocol commands against this process's replica."""

    def __init__(
        self,
        service: OctopusService,
        shard_id: int,
        num_shards: int,
        node_range: Tuple[int, int],
        arena: Optional[ShmArena] = None,
    ) -> None:
        self.service = service
        self.shard_id = int(shard_id)
        self.num_shards = int(num_shards)
        self.node_range = (int(node_range[0]), int(node_range[1]))
        self.arena = arena
        self._sessions: Dict[str, Dict[str, Any]] = {}
        # Routed requests are timed and folded into the replica's own
        # ServiceMetrics (the coordinator merges them fleet-wide).
        self._measured = MetricsMiddleware(service.metrics)
        self.commands_served = 0
        self.requests_executed = 0

    def _ship(self, array: np.ndarray) -> Union[np.ndarray, ShmSlice]:
        """Move a reply array into the arena; descriptor out, array back in.

        The arena is rewound at the start of every cover command (see the
        handlers), which is safe because the coordinator's protocol is
        strictly one-command-in-flight per shard *and* it folds each
        reply's views into fresh merge arrays before sending the next
        command.  A full arena (``OSError``) degrades to the inline
        pickle payload — identical bytes, just slower.
        """
        if self.arena is None:
            return array
        try:
            return self.arena.write_arrays((array,))
        except OSError:  # pragma: no cover — filesystem refusal
            return array

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
            if isinstance(command, CoverInit):
                return self._handle_cover_init(command)
            if isinstance(command, CoverRound):
                return self._handle_cover_round(command)
            if isinstance(command, EstimateCover):
                return self._handle_estimate(command)
            if isinstance(command, DropSession):
                self._sessions.pop(command.session, None)
                return ShardReply(ok=True)
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
                        "node_range": list(self.node_range),
                        "sessions": len(self._sessions),
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
        """Sample this shard's chunk range into a resident packed batch.

        Each chunk draws from its own pre-spawned stream, exactly as a
        pooled backend's chunk worker would — the shard boundary adds
        scheduling, never different randomness.
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
        packed = PackedRRSets.from_chunks(graph.num_nodes, chunks)
        self._sessions[command.session] = {"packed": packed}
        return ShardReply(
            ok=True,
            value={
                "num_sets": packed.num_sets,
                "num_members": int(len(packed.nodes)),
            },
        )

    def _session(self, session: str) -> Dict[str, Any]:
        state = self._sessions.get(session)
        if state is None:
            raise KeyError(f"no sampling session {session!r} on this shard")
        return state

    def _handle_cover_init(self, command: CoverInit) -> ShardReply:
        """Build the greedy state; report coverage + tie-break arrays."""
        state = self._session(command.session)
        cover = ShardCoverState(
            state["packed"], command.base, command.total_members
        )
        state["cover"] = cover
        if self.arena is not None:
            self.arena.reset()
        return ShardReply(
            ok=True,
            value={
                "coverage": self._ship(cover.coverage),
                "first_seen": self._ship(cover.first_seen_global),
            },
        )

    def _handle_cover_round(self, command: CoverRound) -> ShardReply:
        """One marginal-gain round: fold the chosen seed, report state."""
        state = self._session(command.session)
        cover: Optional[ShardCoverState] = state.get("cover")
        if cover is None:
            raise KeyError(
                f"session {command.session!r} has no cover state (CoverInit "
                f"not run)"
            )
        cover.apply_seed(int(command.seed_node))
        if self.arena is not None:
            self.arena.reset()
        return ShardReply(
            ok=True,
            value={
                "coverage": self._ship(cover.coverage),
                "covered": cover.covered_count,
            },
        )

    def _handle_estimate(self, command: EstimateCover) -> ShardReply:
        """Covered-set count for an arbitrary seed set (no state change)."""
        state = self._session(command.session)
        packed: PackedRRSets = state["packed"]
        seeds = np.unique(np.asarray(list(command.seeds), dtype=np.int64))
        seeds = seeds[(seeds >= 0) & (seeds < packed.num_nodes)]
        if seeds.size == 0 or packed.num_sets == 0:
            return ShardReply(ok=True, value={"covered": 0})
        member_offsets, member_sets = packed.membership()
        indices = gather_csr_slices(
            member_offsets[seeds], member_offsets[seeds + 1]
        )
        covered = int(np.unique(member_sets[indices]).size)
        return ShardReply(ok=True, value={"covered": covered})

    def _handle_stats(self) -> ShardReply:
        """The replica's serving stats plus shard-local counters."""
        stats = dict(self.service.stats())
        stats["shard.id"] = float(self.shard_id)
        stats["shard.commands"] = float(self.commands_served)
        stats["shard.requests"] = float(self.requests_executed)
        stats["shard.sessions"] = float(len(self._sessions))
        stats["shard.node_lo"] = float(self.node_range[0])
        stats["shard.node_hi"] = float(self.node_range[1])
        return ShardReply(ok=True, value=stats)


def shard_main(
    connection,
    service: OctopusService,
    shard_id: int,
    num_shards: int,
    node_range: Tuple[int, int],
    arena: Optional[ShmArena] = None,
) -> None:
    """Entry point of a forked shard process.

    Applies the same fork hygiene as the process-pool executor's worker
    initializer (drop the inherited pool), then serves
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
    _serve_shard(connection, service, shard_id, num_shards, node_range, arena)


def shard_respawn_main(
    connection,
    snapshot_path: str,
    shard_id: int,
    num_shards: int,
    node_range: Tuple[int, int],
    arena: Optional[ShmArena] = None,
) -> None:
    """Entry point of a shard respawned from a snapshot.

    Unlike :func:`shard_main`, the replica is not inherited copy-on-write
    from the coordinator: the child rebuilds it from the OCTOSNAP file
    (:func:`repro.snapshot.load_snapshot`), which reconstructs the exact
    constructor inputs and re-runs the seed-keyed index build — so the
    respawned replica answers with the same bytes as the shard it
    replaces.  The node range and arena are the dead shard's own (the
    arena's base mapping is inherited across the fork exactly as at first
    construction, since the coordinator owns the session), so routing and
    chunk-range ownership resume unchanged.

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
    _serve_shard(connection, service, shard_id, num_shards, node_range, arena)


def _serve_shard(
    connection,
    service: OctopusService,
    shard_id: int,
    num_shards: int,
    node_range: Tuple[int, int],
    arena: Optional[ShmArena],
) -> None:
    """The shared shard body: fork hygiene, then the command loop.

    Applies the same hygiene as the process-pool executor's worker
    initializer (drop any inherited pool), then serves
    ``(sequence, command)`` frames until ``Shutdown`` or a closed pipe.
    """
    _adopt_worker_service(service)
    worker = ShardWorker(service, shard_id, num_shards, node_range, arena)
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
