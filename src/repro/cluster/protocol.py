"""The typed shard protocol spoken over each shard's pipe.

Small frozen dataclasses, one per operation, pickled over a
:mod:`multiprocessing` duplex pipe.  Every command travels as
``(sequence_number, command)`` and every reply as
``(sequence_number, ShardReply)``; the coordinator discards replies whose
sequence number it has already given up on (a bounded wait that expired),
so one slow answer can never desynchronise the pipe for the commands that
follow it.

The protocol is deliberately minimal — two work verbs plus lifecycle
plumbing:

=================  ====================================================
command            shard action
=================  ====================================================
``ExecuteRequest`` serve one full :class:`ServiceRequest` on the shard's
                   forked service replica (routing path)
``SampleShard``    sample the shard's contiguous set-index range of one
                   keyed RR batch and return it as one packed
                   ``(nodes, offsets)`` pair (fan-out path)
``ShardStatsCmd``  serving counters of the shard replica
``Ping``           liveness probe (pid + per-shard request counters)
``Shutdown``       reply, close the pipe, exit the process
=================  ====================================================

The ``SampleShard`` reply carries the ``(nodes, offsets)`` arrays inline:
the pipe pickles them with the rest of the frame, so every command and
every reply crosses the same pipe the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.service.requests import ServiceRequest

__all__ = [
    "ExecuteRequest",
    "Ping",
    "SampleShard",
    "ShardReply",
    "ShardStatsCmd",
    "Shutdown",
]


@dataclass(frozen=True)
class ExecuteRequest:
    """Serve one whole typed request on the shard's service replica.

    ``request_id`` carries the front-door trace id across the fork
    boundary (context variables do not survive ``fork()``): the shard
    worker re-activates a trace under that id so its log lines and the
    envelope it returns stay correlated with the coordinator's request.
    ``None`` — the default, so older pickled frames still construct —
    means the request is untraced.
    """

    request: ServiceRequest
    request_id: Optional[str] = None


@dataclass(frozen=True)
class SampleShard:
    """Sample sets ``first, first + 1, …`` (rooted at *roots*) of the RR
    batch keyed by *key*, under *gamma*."""

    gamma: Any  # np.ndarray; Any keeps the dataclass eq/pickle simple
    key: int
    first: int
    roots: Any  # np.ndarray of int64


@dataclass(frozen=True)
class ShardStatsCmd:
    """Snapshot the shard replica's serving statistics."""


@dataclass(frozen=True)
class Ping:
    """Liveness probe."""


@dataclass(frozen=True)
class Shutdown:
    """Acknowledge, close the pipe, exit the worker process."""


@dataclass(frozen=True)
class ShardReply:
    """Uniform reply envelope: a value on success, a message on failure.

    A failed command never kills the worker — the error crosses the pipe
    and the coordinator turns it into a structured ``internal_error``
    service envelope (or a fallback), mirroring the service layer's
    "the envelope is the contract" rule.
    """

    ok: bool
    value: Any = None
    error: str = ""
    details: dict = field(default_factory=dict)
