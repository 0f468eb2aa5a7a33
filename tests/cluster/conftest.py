"""Fixtures of the cluster test suite.

Every fixture builds *small* systems (tiny index budgets) because each
golden comparison constructs several full replicas plus forked shard
processes.  Shard-process waits are short and bounded — a wedged shard
fails a test in seconds, it never hangs the suite.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.cluster import ClusterCoordinator, worker
from repro.core.octopus import Octopus, OctopusConfig
from repro.service import OctopusService

#: Every shard-pipe wait in this package is bounded by this (seconds).
CLUSTER_TIMEOUT = 20.0


@pytest.fixture
def stalled_sampling(monkeypatch):
    """Shards forked after this fixture take 30 s per ``SampleShard``, so
    a shard killed during a fan-out always dies mid-sampling, however fast
    sampling itself is."""
    original = worker.sample_packed_rr_sets

    def stalled(*args, **kwargs):
        time.sleep(30.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(worker, "sample_packed_rr_sets", stalled)


def small_config(
    execution_backend: str = "serial",
    workers: int = 1,
) -> OctopusConfig:
    """Tiny index budgets on the given execution backend."""
    return OctopusConfig(
        num_sketches=30,
        num_topic_samples=3,
        topic_sample_rr_sets=150,
        execution_backend=execution_backend,
        workers=workers,
        seed=29,
    )


@pytest.fixture(scope="module")
def make_service(citation_dataset):
    """Factory: a fresh small service over the shared dataset."""

    def build(
        execution_backend: str = "serial",
        workers: int = 1,
    ) -> OctopusService:
        return OctopusService(
            Octopus.from_dataset(
                citation_dataset,
                config=small_config(execution_backend, workers),
            )
        )

    return build


@contextlib.contextmanager
def _running_cluster(service, shards: int, **kwargs):
    kwargs.setdefault("shard_timeout", CLUSTER_TIMEOUT)
    cluster = ClusterCoordinator(service, shards=shards, **kwargs)
    try:
        yield cluster
    finally:
        cluster.close()


@pytest.fixture
def running_cluster():
    """The cluster-booting context manager (always closed afterwards)."""
    return _running_cluster
