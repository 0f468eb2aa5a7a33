"""The cluster's shared-memory data plane: identical bytes, zero leaks.

The transport twin contract of the ISSUE: with the shm data plane on
(default) and off (``REPRO_SHM=0``), every response of the golden workload
is byte-identical across 1, 2 and 4 shards — the transport moves bytes,
it never changes them.  The lifecycle half: session directories are
reclaimed after a normal close, after garbage collection without close,
and after a shard is SIGKILL-ed mid-request.
"""

from __future__ import annotations

import gc
import glob
import os
import threading
import time

import pytest

from repro.backend.shm import SESSION_PREFIX, shm_enabled, shm_root
from repro.cluster import ClusterCoordinator
from repro.service import TargetedInfluencersRequest

from test_cluster_failures import _kill_shard
from test_cluster_golden import GOLDEN_WORKLOAD, golden_forms


def shm_session_dirs() -> list:
    """Live session directories under the shm root (leak accounting)."""
    return sorted(glob.glob(os.path.join(shm_root(), SESSION_PREFIX + "*")))

pytestmark = pytest.mark.skipif(
    not shm_enabled(), reason="shared-memory data plane disabled or unavailable"
)


class TestTransportTwinDeterminism:
    """shm and pickle transports serve the same bytes at every shard count."""

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
        if transport == "pickle":
            monkeypatch.setenv("REPRO_SHM", "0")
        with running_cluster(make_service("threads"), shards=shards) as cluster:
            assert cluster.stats()["executor.payload_transport"] == transport
            served = cluster.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == reference_forms
        assert all(response.ok for response in served)

    def test_octopus_stats_report_transport(self, make_service):
        service = make_service("threads")
        stats = service.backend.statistics()
        assert stats["execution.payload_transport"] == "inline"


class TestSessionLifecycle:
    def test_normal_close_reclaims_session(self, make_service, running_cluster):
        before = set(shm_session_dirs())
        with running_cluster(make_service("threads"), shards=2) as cluster:
            response = cluster.execute(
                TargetedInfluencersRequest("data mining", k=2, num_sets=150)
            )
            assert response.ok
            created = [p for p in shm_session_dirs() if p not in before]
            assert created, "cluster did not create an shm session"
        assert not [p for p in shm_session_dirs() if p not in before]

    def test_garbage_collection_reclaims_unclosed_session(self, make_service):
        before = set(shm_session_dirs())
        cluster = ClusterCoordinator(
            make_service("threads"), shards=1, shard_timeout=20.0
        )
        session_path = cluster._shm_session.path
        assert session_path in shm_session_dirs()
        try:
            # Drop the only reference without calling close(): the session
            # finalizer must still reclaim the directory.
            handles = cluster._handles
            del cluster
            gc.collect()
            assert session_path not in shm_session_dirs()
        finally:
            for handle in handles:
                handle.shutdown(timeout=10.0)
        assert not [p for p in shm_session_dirs() if p not in before]

    def test_shard_kill_mid_request_leaks_nothing(
        self, make_service, running_cluster, stalled_sampling
    ):
        """A SIGKILL-ed shard cannot leak: it never owns a segment."""
        before = set(shm_session_dirs())
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
            # the huge budget: the request errors quickly and the close()
            # below must still reclaim the arenas the corpses wrote into.
            _kill_shard(cluster, 1)
            _kill_shard(cluster, 0)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert not outcome["response"].ok
        assert not [p for p in shm_session_dirs() if p not in before]
