"""Coordinator failure paths: dead shards degrade, they never hang.

The contract under fault: a shard killed mid-request surfaces as a
structured ``internal_error`` envelope within a bounded time (never a hang,
never an unparseable 5xx body); the cluster reports itself degraded on
``/healthz``; and surviving shards keep serving — including recomputing a
distributed query through the deterministic whole-query fallback.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import (
    CompleteRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)

#: Generous ceiling for "bounded": every failure below resolves in well
#: under a second; a hang fails the assertion instead of stalling CI.
FAILURE_BOUND_SECONDS = 15.0


def _kill_shard(cluster, shard_id: int) -> None:
    handle = cluster._handles[shard_id]
    handle.process.kill()
    handle.process.join(timeout=5.0)
    assert not handle.process.is_alive()


class TestDeadShardErrors:
    def test_kill_mid_request_yields_bounded_internal_error(
        self, make_service, running_cluster, stalled_sampling
    ):
        """The in-flight request on a dying shard errors, fast and typed."""
        with running_cluster(
            make_service("serial"), shards=1, shard_timeout=10.0
        ) as cluster:
            outcome = {}

            def serve():
                started = time.monotonic()
                # The shard stalls in sampling (``stalled_sampling``), so
                # the kill below is guaranteed to land mid-computation.
                outcome["response"] = cluster.execute(
                    TargetedInfluencersRequest(
                        "data mining", k=2, num_sets=1_000_000
                    )
                )
                outcome["elapsed"] = time.monotonic() - started

            thread = threading.Thread(target=serve)
            thread.start()
            time.sleep(0.3)  # let the request reach the shard and start
            _kill_shard(cluster, 0)
            thread.join(timeout=FAILURE_BOUND_SECONDS)
            assert not thread.is_alive(), "dead shard hung the request"
            response = outcome["response"]
            assert not response.ok
            assert response.error.code == "internal_error"
            assert "shard" in response.error.message
            assert outcome["elapsed"] < FAILURE_BOUND_SECONDS

    def test_all_shards_dead_is_a_typed_error_not_a_hang(
        self, make_service, running_cluster
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            for shard_id in (0, 1):
                _kill_shard(cluster, shard_id)
            started = time.monotonic()
            response = cluster.execute(CompleteRequest(prefix="da"))
            assert time.monotonic() - started < FAILURE_BOUND_SECONDS
            assert not response.ok
            assert response.error.code == "internal_error"
            assert "no live shards" in response.error.message


class TestDegradedCluster:
    def test_health_flips_to_degraded(self, make_service, running_cluster):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            assert cluster.health()["degraded"] is False
            _kill_shard(cluster, 0)
            health = cluster.health()
            assert health["degraded"] is True
            assert health["shards_alive"] == 1
            liveness = {
                entry["shard"]: entry["alive"]
                for entry in health["shard_liveness"]
            }
            assert liveness == {0: False, 1: True}

    def test_surviving_shards_keep_serving(
        self, make_service, running_cluster
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            _kill_shard(cluster, 0)
            for _ in range(4):  # round-robin must skip the corpse
                response = cluster.execute(CompleteRequest(prefix="da", limit=3))
                assert response.ok
            stats = cluster.stats()
            assert stats["executor.shards_alive"] == 1.0
            assert stats["cluster.shard0.alive"] == 0.0

    def test_distributed_query_falls_back_deterministically(
        self, make_service, running_cluster
    ):
        """Losing a shard downgrades targeted fan-out to routing — the
        response bytes must not change."""
        request = TargetedInfluencersRequest("data mining", k=2, num_sets=150)
        reference = deterministic_form(make_service("threads").execute(request))
        with running_cluster(make_service("threads"), shards=2) as cluster:
            fanned = cluster.execute(request)
            assert deterministic_form(fanned) == reference
            _kill_shard(cluster, 1)
            routed = cluster.execute(
                TargetedInfluencersRequest("clustering", k=2, num_sets=150)
            )
            # A fresh query (different keywords → cache miss) served after
            # the kill: the routed path on the survivor must succeed …
            assert routed.ok
            # … and the original query recomputed on the survivor matches
            # the fan-out bytes exactly.
            cluster.cache.clear()
            recomputed = cluster.execute(request)
            assert deterministic_form(recomputed) == reference


    def test_shard_dying_mid_fan_out_leaves_its_peer_in_step(
        self, make_service, running_cluster
    ):
        """Shard 0 dies right after its fan-out frame is sent: the request
        falls back to routing with the single-process bytes, and shard 1's
        owed reply is discarded rather than read as a protocol desync."""
        request = TargetedInfluencersRequest("data mining", k=2, num_sets=1100)
        reference = deterministic_form(make_service("threads").execute(request))
        with running_cluster(make_service("threads"), shards=2) as cluster:
            victim = cluster._handles[0]
            send_locked = victim.send_locked

            def send_then_die(command):
                sequence = send_locked(command)
                _kill_shard(cluster, 0)
                return sequence

            victim.send_locked = send_then_die
            response = cluster.execute(request)
            assert response.ok
            assert deterministic_form(response) == reference
            assert cluster._handles[1].is_alive()
            assert cluster.health()["shards_alive"] == 1


class TestDeadShardOverHTTP:
    def test_internal_error_is_a_parseable_500_and_healthz_degrades(
        self, make_service, running_cluster
    ):
        import json
        import urllib.error
        import urllib.request

        from repro.server import serve_in_background

        with running_cluster(make_service("serial"), shards=2) as cluster:
            server = serve_in_background(cluster, request_timeout=5.0)
            try:
                for shard_id in (0, 1):
                    _kill_shard(cluster, shard_id)
                body = CompleteRequest(prefix="da").to_json().encode()
                request = urllib.request.Request(
                    f"{server.url}/query",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request, timeout=FAILURE_BOUND_SECONDS)
                assert caught.value.code == 500
                envelope = json.loads(caught.value.read().decode())
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "internal_error"
                with urllib.request.urlopen(
                    f"{server.url}/healthz", timeout=FAILURE_BOUND_SECONDS
                ) as reply:
                    health = json.loads(reply.read().decode())
                assert health["status"] == "degraded"
                assert health["cluster"]["shards_alive"] == 0
            finally:
                server.shutdown_gracefully()
