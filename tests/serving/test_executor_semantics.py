"""One serving semantics across the three executors.

``OctopusService`` composes the middleware stack once; the forked
executors (``processes``: whole-query replicas, ``cluster``: replicas plus
targeted fan-out — both a ``ClusterCoordinator``) only choose where the
innermost handler computes.  So for the same traffic every executor must
admit the same requests under a rate limit, show a user middleware every
admitted request *in the serving process*, reject the same bad request the
same way, refuse everything once closed, answer the same bytes, and leave
no child process behind once closed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal

import pytest

from repro.cluster import ClusterCoordinator
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)
from repro.snapshot import load_snapshot, save_snapshot

EXECUTORS = ["serial", "processes", "cluster"]

TARGETED = TargetedInfluencersRequest("data mining", k=2, num_sets=150)

#: The six query services (``stats`` names the executor, so it is excluded).
SIX_SERVICES = [
    CompleteRequest(prefix="da", limit=5),
    FindInfluencersRequest("data mining", k=3),
    RadarRequest("data mining"),
    SuggestKeywordsRequest(user=0, k=2),
    ExplorePathsRequest(user=0, threshold=0.02),
    TARGETED,
]

#: Structurally invalid, and equal to nothing a test caches.
INVALID = {"service": "complete", "prefix": "da", "limit": 0}


@pytest.fixture(scope="module")
def snapshot_path(backend, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("semantics") / "system.octosnap")
    save_snapshot(backend, path)
    return path


@pytest.fixture(scope="module")
def system(snapshot_path):
    """The one restored system every executor in this module serves."""
    restored = load_snapshot(snapshot_path)
    yield restored
    restored.close()


@pytest.fixture
def serving(system, snapshot_path):
    """``serving(kind, **service_kwargs)``: a fresh dispatcher behind the
    named executor, closed on exit."""

    @contextlib.contextmanager
    def boot(kind, **service_kwargs):
        service = OctopusService(system, **service_kwargs)
        if kind == "serial":
            yield service
        else:
            executor = ClusterCoordinator(
                service,
                shards=2,
                shard_timeout=20.0,
                snapshot_path=snapshot_path,
                fan_out=kind == "cluster",
            )
            try:
                yield executor
            finally:
                executor.close()
        # close() reaps every forked replica; none is left to exit later.
        assert multiprocessing.active_children() == []

    return boot


@pytest.fixture(scope="module")
def reference(system):
    """The serial dispatcher's answers to the shared request lists."""
    service = OctopusService(system)
    return {
        "six": [deterministic_form(service.execute(r)) for r in SIX_SERVICES],
        "invalid": deterministic_form(service.execute(INVALID)),
    }


@pytest.mark.parametrize("kind", EXECUTORS)
class TestOneServingSemantics:
    def test_rate_limit_admits_exactly_the_burst(self, serving, kind):
        """One bucket for every path: repeats (cache hits), distinct cheap
        requests and a fanned-out ``targeted`` all spend from it."""
        burst = (
            [CompleteRequest(prefix="da")] * 10
            + [CompleteRequest(prefix="da", limit=n) for n in range(1, 11)]
            + [TARGETED]
        )
        with serving(kind, rate_limit=2.0, clock=lambda: 0.0) as executor:
            responses = [executor.execute(request) for request in burst]
        admitted = [response for response in responses if response.ok]
        rejected = [response for response in responses if not response.ok]
        assert len(admitted) == 2
        assert [response.cache_hit for response in admitted] == [False, True]
        assert len(rejected) == 19
        assert {response.error.code for response in rejected} == {"rate_limited"}

    def test_user_middleware_sees_every_admitted_request(self, serving, kind):
        seen = []

        def spy(request, call_next):
            seen.append(request.service)  # this process's list: no fork sees it
            return call_next(request)

        with serving(kind, middleware=[spy]) as executor:
            assert executor.execute(TARGETED).ok
            if kind == "cluster":
                stats = executor.stats()
                for shard in (0, 1):  # fanned out, not routed
                    assert stats[f"cluster.shard{shard}.commands"] > 0.0
                    assert stats[f"cluster.shard{shard}.requests"] == 0.0
            elif kind == "processes":
                stats = executor.stats()
                routed = [stats[f"cluster.shard{shard}.requests"] for shard in (0, 1)]
                assert sorted(routed) == [0.0, 1.0]  # whole, on one replica
            assert seen == ["targeted"]
            first = executor.execute(CompleteRequest(prefix="da"))
            hit = executor.execute(CompleteRequest(prefix="da"))
            assert first.ok and hit.ok and hit.cache_hit
            assert seen == ["targeted", "complete", "complete"]
            batch = executor.execute_batch([RadarRequest("data mining")] * 2)
            assert all(response.ok for response in batch)
            assert batch[1].cache_hit
        # The duplicate's leader ran the stack; the duplicate itself either
        # shared its answer or, having arrived later, hit the cache.
        assert seen[:3] == ["targeted", "complete", "complete"]
        assert seen[3:] in (["radar"], ["radar", "radar"])

    def test_invalid_request_is_rejected_identically(
        self, serving, reference, kind
    ):
        with serving(kind) as executor:
            single = executor.execute(INVALID)
            in_batch = executor.execute_batch([CompleteRequest(prefix="da"), INVALID])
        assert single.error.code == "invalid_request"
        assert deterministic_form(single) == reference["invalid"]
        assert in_batch[0].ok
        assert deterministic_form(in_batch[1]) == reference["invalid"]

    def test_answer_bytes_agree(self, serving, reference, kind):
        with serving(kind) as executor:
            one_by_one = [executor.execute(r) for r in SIX_SERVICES]
            batched = executor.execute_batch(SIX_SERVICES)  # now all cached
        assert [deterministic_form(r) for r in one_by_one] == reference["six"]
        assert [deterministic_form(r) for r in batched] == reference["six"]
        assert all(response.cache_hit for response in batched)

    def test_closed_executor_serves_nothing(self, serving, kind):
        if kind == "serial":
            pytest.skip("the bare dispatcher has no lifecycle")
        cached = CompleteRequest(prefix="da")
        with serving(kind) as executor:
            assert executor.execute(cached).ok
            executor.close()
            responses = [executor.execute(cached)] + executor.execute_batch(
                [cached, INVALID]
            )
            served = executor.metrics.snapshot()["service.complete.requests"]
        assert served == 1.0
        for response in responses:
            assert not response.ok and not response.cache_hit
            assert response.error.code == "internal_error"
            assert response.error.message == "executor is closed"


class TestDeadReplica:
    def test_killed_replica_degrades_and_the_survivor_answers(
        self, serving, reference
    ):
        """SIGKILL one of two ``processes`` replicas: later requests are
        answered by the survivor with the serial bytes, and ``health()``
        (hence ``/healthz``) reports the executor degraded."""
        with serving("processes") as executor:
            assert executor.execute(CompleteRequest(prefix="cl")).ok
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            later = [executor.execute(request) for request in SIX_SERVICES]
            health = executor.health()
        assert [deterministic_form(r) for r in later] == reference["six"]
        assert health["degraded"] is True
        assert (health["shards"], health["shards_alive"]) == (2, 1)
