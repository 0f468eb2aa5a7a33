"""Forked multi-process serving for the OCTOPUS service layer.

The cluster package keeps whole-service replicas resident in long-lived
shard worker processes behind the standard service-executor surface; it
is the one forked executor of ``octopus serve`` (``--executor processes``
routes every request whole, ``--executor cluster`` also fans targeted
sampling out):

* :mod:`repro.cluster.worker` — the :class:`~repro.cluster.worker.ShardWorker`
  process: a forked full-service replica speaking the typed shard
  protocol (:mod:`repro.cluster.protocol`) over its pipe — serving routed
  requests whole, or sampling its chunk range of a targeted query's RR
  batch and returning it;
* :mod:`repro.cluster.coordinator` — the
  :class:`~repro.cluster.coordinator.ClusterCoordinator` implementing
  ``execute`` / ``execute_batch`` / ``stats`` / ``close`` by routing each
  request to an idle replica or fanning out (shards sample, the
  coordinator runs the ordinary greedy cover on the concatenated batch),
  with every wait bounded and dead shards degrading (never hanging) the
  executor.

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
