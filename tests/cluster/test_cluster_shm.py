"""The cluster's reply transport: one pipe, identical bytes, nothing left behind.

Shard replies cross the pipe pickled; there is no second transport.  The
ids ``shm`` / ``pickle`` name the two settings of the retired
``REPRO_SHM`` switch, which deployments may still export: under either,
every response of the golden workload is byte-identical across 1, 2 and
4 shards, and no file appears under ``/dev/shm``.  The lifecycle half: a
cluster whose shards are SIGKILL-ed mid-request still reaps every shard
process and leaves ``/dev/shm`` as it found it.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.service import TargetedInfluencersRequest

from test_cluster_failures import _kill_shard
from test_cluster_golden import GOLDEN_WORKLOAD, golden_forms

#: The retired ``REPRO_SHM`` switch's value for each transport id.
STALE_SWITCH = {"shm": "1", "pickle": "0"}


def shm_entries() -> set:
    """Names under ``/dev/shm`` (empty where the platform has none)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


class TestTransportTwinDeterminism:
    """Both settings of the retired switch serve the same bytes."""

    @pytest.fixture(scope="class")
    def reference_forms(self, make_service):
        service = make_service("threads")
        return golden_forms([service.execute(r) for r in GOLDEN_WORKLOAD])

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_golden_workload_bytes(
        self,
        monkeypatch,
        make_service,
        running_cluster,
        reference_forms,
        shards,
        transport,
    ):
        monkeypatch.setenv("REPRO_SHM", STALE_SWITCH[transport])
        before = shm_entries()
        with running_cluster(make_service("threads"), shards=shards) as cluster:
            assert "executor.payload_transport" not in cluster.stats()
            served = cluster.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == reference_forms
        assert all(response.ok for response in served)
        assert shm_entries() <= before


class TestSessionLifecycle:
    def test_shard_kill_mid_request_leaks_nothing(
        self, make_service, running_cluster, stalled_sampling
    ):
        """SIGKILL-ed shards mid-fan-out: the request errors, every shard
        process is reaped and nothing is left under ``/dev/shm``."""
        before = shm_entries()
        with running_cluster(
            make_service("threads"), shards=2, shard_timeout=10.0
        ) as cluster:
            outcome = {}

            def serve():
                outcome["response"] = cluster.execute(
                    TargetedInfluencersRequest(
                        "data mining", k=2, num_sets=1_000_000
                    )
                )

            thread = threading.Thread(target=serve)
            thread.start()
            time.sleep(0.3)  # let the fan-out reach the shards
            # Kill both shards so the whole-query fallback cannot recompute
            # the huge budget: the request errors quickly.
            _kill_shard(cluster, 1)
            _kill_shard(cluster, 0)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert not outcome["response"].ok
            processes = [handle.process for handle in cluster._handles]
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None
        assert shm_entries() <= before
