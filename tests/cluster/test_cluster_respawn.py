"""Shard respawn from snapshot: recovery must be invisible in the bytes.

The PR-9 golden path: a coordinator constructed with ``snapshot_path=``
can replace a SIGKILLed shard with a fresh process that boots from the
OCTOSNAP file — restoring the dead shard's node-range and chunk-range
ownership — after which ``health()`` reports the cluster whole again and
the golden workload serves **byte-identical** ``deterministic_form``
output, exactly as if the kill never happened.

Snapshot-booted replicas also honour the shard-count determinism
contract on their own: a cluster whose backend was *loaded* rather than
built from the dataset serves the same bytes at 1, 2 and 4 shards.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.service import OctopusService
from repro.snapshot import load_snapshot, save_snapshot
from repro.utils.validation import ValidationError

from test_cluster_golden import GOLDEN_WORKLOAD, golden_forms

#: Bound on every HTTP wait in this module (seconds).
HTTP_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def threads_service(make_service):
    """One chunked-semantics service shared by the module (do not mutate)."""
    return make_service("threads")


@pytest.fixture(scope="module")
def snapshot_path(threads_service, tmp_path_factory):
    """An OCTOSNAP of the module's backend, for boots and respawns."""
    path = tmp_path_factory.mktemp("respawn") / "system.octosnap"
    save_snapshot(threads_service.backend, str(path), source="cluster-tests")
    return str(path)


@pytest.fixture(scope="module")
def reference_forms(threads_service):
    return golden_forms(
        [threads_service.execute(r) for r in GOLDEN_WORKLOAD]
    )


def _kill_shard(cluster, shard_id: int) -> None:
    handle = cluster._handles[shard_id]
    handle.process.kill()  # SIGKILL — no cleanup, the hard-crash shape
    handle.process.join(timeout=5.0)


class TestSnapshotBootedCluster:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_fresh_build(
        self, snapshot_path, reference_forms, running_cluster, shards
    ):
        service = OctopusService(load_snapshot(snapshot_path))
        with running_cluster(service, shards=shards) as cluster:
            served = cluster.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == reference_forms
        assert all(response.ok for response in served)


class TestRespawn:
    @pytest.mark.parametrize("shards,victim", [(2, 0), (4, 2)])
    def test_kill_one_shard_then_respawn_restores_bytes(
        self,
        threads_service,
        snapshot_path,
        reference_forms,
        running_cluster,
        shards,
        victim,
    ):
        with running_cluster(
            threads_service, shards=shards, snapshot_path=snapshot_path
        ) as cluster:
            before = golden_forms(cluster.execute_batch(GOLDEN_WORKLOAD))
            assert before == reference_forms

            _kill_shard(cluster, victim)
            assert cluster.health()["degraded"] is True

            assert cluster.respawn_dead_shards() == [victim]

            health = cluster.health()
            assert health["degraded"] is False
            assert health["shards_alive"] == shards

            # Recompute through the respawned shard, not the cache: the
            # replacement must own the dead shard's chunk ranges and node
            # range, or these bytes drift.
            cluster.cache.clear()
            after = golden_forms(cluster.execute_batch(GOLDEN_WORKLOAD))
            assert after == reference_forms

    def test_respawn_is_a_noop_when_all_shards_live(
        self, threads_service, snapshot_path, running_cluster
    ):
        with running_cluster(
            threads_service, shards=2, snapshot_path=snapshot_path
        ) as cluster:
            assert cluster.respawn_dead_shards() == []
            assert cluster.health()["degraded"] is False

    def test_respawn_without_snapshot_is_a_structured_error(
        self, threads_service, running_cluster
    ):
        with running_cluster(threads_service, shards=2) as cluster:
            _kill_shard(cluster, 0)
            with pytest.raises(ValidationError, match="snapshot"):
                cluster.respawn_dead_shards()
            # Still degraded — the failed call must not half-recover.
            assert cluster.health()["degraded"] is True

    def test_respawn_twice_survives_repeated_kills(
        self, threads_service, snapshot_path, running_cluster
    ):
        """Respawn is repeatable: kill the same shard twice and both
        respawns must come back healthy."""
        with running_cluster(
            threads_service, shards=2, snapshot_path=snapshot_path
        ) as cluster:
            for _ in range(2):
                _kill_shard(cluster, 0)
                assert cluster.respawn_dead_shards() == [0]
                assert cluster.health()["degraded"] is False
                cluster.cache.clear()
                response = cluster.execute(GOLDEN_WORKLOAD[1])
                assert response.ok


class TestHealthzOverHTTP:
    def test_healthz_degraded_then_ok_after_respawn(
        self, threads_service, snapshot_path, running_cluster
    ):
        from repro.server import serve_in_background

        def healthz(server):
            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=HTTP_TIMEOUT
            ) as reply:
                return json.loads(reply.read().decode())

        with running_cluster(
            threads_service, shards=2, snapshot_path=snapshot_path
        ) as cluster:
            server = serve_in_background(cluster, request_timeout=5.0)
            try:
                assert healthz(server)["status"] == "ok"
                _kill_shard(cluster, 0)
                assert healthz(server)["status"] == "degraded"
                cluster.respawn_dead_shards()
                health = healthz(server)
            finally:
                server.shutdown_gracefully()
        assert health["status"] == "ok"
        assert health["cluster"]["shards_alive"] == 2
