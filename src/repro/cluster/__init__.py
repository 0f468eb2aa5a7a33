"""Sharded multi-process serving for the OCTOPUS service layer.

The cluster package keeps partitioned graph/index state resident in
long-lived shard worker processes behind the standard service-executor
surface:

* :mod:`repro.cluster.worker` — the :class:`~repro.cluster.worker.ShardWorker`
  process: a forked full-service replica plus a node-range partition,
  speaking the typed shard protocol (:mod:`repro.cluster.protocol`) over
  its pipe — serving routed requests whole, or sampling its chunk range
  of a targeted query's RR batch and returning it;
* :mod:`repro.cluster.coordinator` — the
  :class:`~repro.cluster.coordinator.ClusterCoordinator` implementing
  ``execute`` / ``execute_batch`` / ``stats`` / ``close`` by routing or
  fanning out (shards sample, the coordinator runs the ordinary greedy
  cover on the concatenated batch), with every wait bounded and dead
  shards degrading (never hanging) the cluster.

Determinism contract: shard count is a pure execution detail.
``deterministic_form()`` of every response is byte-identical for 1, 2 and
4 shards and identical to the single-process ``OctopusService`` with the
same configuration (``tests/cluster/`` proves it three ways).
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ShardCommandError,
    ShardDeadError,
    ShardError,
    ShardTimeoutError,
    partition_contiguous,
)
from repro.cluster.worker import ShardWorker

__all__ = [
    "ClusterCoordinator",
    "ShardCommandError",
    "ShardDeadError",
    "ShardError",
    "ShardTimeoutError",
    "ShardWorker",
    "partition_contiguous",
]
