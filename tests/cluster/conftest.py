"""Fixtures of the cluster test suite.

Every fixture builds *small* systems (tiny index budgets) because each
golden comparison constructs several full replicas plus forked shard
processes.  Shard-process waits are short and bounded — a wedged shard
fails a test in seconds, it never hangs the suite.
"""

from __future__ import annotations

import contextlib
import glob
import os

import pytest

from repro.backend.shm import SESSION_PREFIX, shm_root
from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.service import OctopusService

#: Every shard-pipe wait in this package is bounded by this (seconds).
CLUSTER_TIMEOUT = 20.0


def shm_session_dirs() -> list:
    """Live shared-memory session directories (the leak-accounting unit)."""
    return sorted(glob.glob(os.path.join(shm_root(), SESSION_PREFIX + "*")))


@pytest.fixture(autouse=True)
def no_leaked_shm_segments():
    """Every cluster test must reclaim its shm sessions, however it ends.

    Sessions that predate the test (e.g. a module-scoped service whose
    pool backend is still open) are tolerated; anything the test itself
    created must be gone when it finishes — including after shard kills.
    """
    before = set(shm_session_dirs())
    yield
    leaked = [path for path in shm_session_dirs() if path not in before]
    assert not leaked, f"leaked shm session directories: {leaked}"


def small_config(
    execution_backend: str = "serial",
    rr_kernel: str = "vectorized",
    workers: int = 1,
) -> OctopusConfig:
    """Tiny index budgets on the given execution backend."""
    return OctopusConfig(
        num_sketches=30,
        num_topic_samples=3,
        topic_sample_rr_sets=150,
        oracle_samples=15,
        execution_backend=execution_backend,
        workers=workers,
        rr_kernel=rr_kernel,
        seed=29,
    )


@pytest.fixture(scope="module")
def make_service(citation_dataset):
    """Factory: a fresh small service over the shared dataset."""

    def build(
        execution_backend: str = "serial",
        rr_kernel: str = "vectorized",
        workers: int = 1,
    ) -> OctopusService:
        return OctopusService(
            Octopus.from_dataset(
                citation_dataset,
                config=small_config(execution_backend, rr_kernel, workers),
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
