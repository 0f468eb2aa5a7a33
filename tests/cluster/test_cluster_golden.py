"""The determinism contract: scheduling is a pure execution detail.

``deterministic_form()`` of every response is **byte-identical** across the
single-process ``OctopusService`` on any execution backend and a
``ClusterCoordinator`` with 1, 2 and 4 shards.  There is one sampling
semantics — every RR set keyed by the batch key and its global index — so
every config, ``serial`` included, takes the **fan-out** path for targeted
queries: shards sample set ranges and the coordinator runs the ordinary
greedy cover on the concatenated batch.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time

import pytest

from repro.cluster import worker
from repro.propagation import native
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    RadarRequest,
    StatsRequest,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)

#: Every deterministic service, duplicates included (duplicate slots ride
#: the cache/de-duplication paths, which must not change payload bytes).
GOLDEN_WORKLOAD = [
    CompleteRequest(prefix="da", limit=5),
    FindInfluencersRequest("data mining", k=3),
    RadarRequest("data mining"),
    SuggestKeywordsRequest(user=0, k=2),
    ExplorePathsRequest(user=0, threshold=0.02),
    TargetedInfluencersRequest("data mining", k=2, num_sets=150),
    FindInfluencersRequest("data mining", k=3),  # duplicate
    TargetedInfluencersRequest("data mining", k=2, num_sets=150),  # duplicate
]


def golden_forms(responses):
    return [deterministic_form(response) for response in responses]


#: Enough RR sets for five sampling chunks, so at four shards every shard
#: owns a non-empty chunk range.
FANOUT_REQUEST = TargetedInfluencersRequest("data mining", k=2, num_sets=1100)


class RoutedRequestWaited(AssertionError):
    """A routed request queued behind a targeted fan-out."""


def gate_radar(service):
    """Make *service*'s ``radar`` wait (bounded) on the returned gate.

    Patch before the cluster forks, so every shard inherits the long radar.
    """
    original = service._handlers["radar"]
    gate = multiprocessing.get_context("fork").Event()

    def long_radar(request, **options):
        gate.wait(timeout=5.0)
        return original(request, **options)

    service._handlers["radar"] = long_radar
    return gate


@contextlib.contextmanager
def radar_holding_shard0(cluster, gate):
    """Keep a gated ``radar`` running on shard 0 until the block exits.

    Yields the thread that sent it; leaving the block opens the gate and
    joins the thread.
    """
    busy = cluster._handles[0]
    long_request = threading.Thread(
        target=cluster.execute, args=(RadarRequest("data mining"),)
    )
    long_request.start()
    try:
        deadline = time.monotonic() + 5.0
        while not busy.lock.locked() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert busy.lock.locked()  # the radar holds shard 0
        yield long_request
    finally:
        gate.set()
        long_request.join(timeout=10.0)


class TestOneAnswerUniverse:
    """Same dataset + seed ⇒ the serial service's exact bytes, however the
    work is scheduled: any execution backend, any shard count."""

    WORKLOAD = GOLDEN_WORKLOAD + [FANOUT_REQUEST]

    @pytest.fixture(scope="class")
    def reference_forms(self, make_service):
        service = make_service("serial")
        return golden_forms([service.execute(r) for r in self.WORKLOAD])

    @pytest.mark.parametrize("execution_backend", ["threads", "processes"])
    def test_execution_backend_is_pure_scheduling(
        self, make_service, reference_forms, execution_backend
    ):
        service = make_service(execution_backend, workers=2)
        try:
            served = [service.execute(r) for r in self.WORKLOAD]
        finally:
            service.backend.close()
        assert golden_forms(served) == reference_forms

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cluster_from_serial_config_matches_and_fans_out(
        self, make_service, running_cluster, reference_forms, shards
    ):
        with running_cluster(make_service("serial"), shards=shards) as cluster:
            assert cluster.execute(FANOUT_REQUEST).ok
            stats = cluster.stats()
            # Fanned out, not routed: every shard served sampling/cover
            # commands for its chunk range and none ran the whole query.
            for shard in range(shards):
                assert stats[f"cluster.shard{shard}.requests"] == 0.0
                assert stats[f"cluster.shard{shard}.commands"] > 0.0
            served = cluster.execute_batch(self.WORKLOAD)
        assert golden_forms(served) == reference_forms
        assert all(response.ok for response in served)

    def test_single_executes_match_batch(
        self, make_service, running_cluster, reference_forms
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            one_by_one = [cluster.execute(r) for r in self.WORKLOAD]
        assert golden_forms(one_by_one) == reference_forms


class TestNativeKernelShardDeterminism:
    """The compiled core honours the same byte contract: shards sample
    their contiguous set ranges on whichever path this checkout has (the
    compiled core when the extension is built) and 1/2/4-shard output must
    equal the bytes of a single-process service built and served entirely
    on the NumPy path."""

    @pytest.fixture(scope="class")
    def native_reference_forms(self, make_service):
        forced, native._FORCED_FALLBACK = native._FORCED_FALLBACK, True
        try:
            service = make_service("threads")
            return golden_forms([service.execute(r) for r in GOLDEN_WORKLOAD])
        finally:
            native._FORCED_FALLBACK = forced

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_native_cluster_matches_serial_service(
        self, make_service, running_cluster, native_reference_forms, shards
    ):
        backend = make_service("threads")
        with running_cluster(backend, shards=shards) as cluster:
            served = cluster.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == native_reference_forms
        assert all(response.ok for response in served)


class TestDistributedPathIsReallyDistributed:
    """Targeted queries must use the fan-out protocol — not fall back to
    whole-query routing on one shard."""

    def test_targeted_query_routes_to_no_shard(
        self, make_service, running_cluster
    ):
        request = TargetedInfluencersRequest("data mining", k=2, num_sets=150)
        with running_cluster(make_service("threads"), shards=2) as cluster:
            response = cluster.execute(request)
            assert response.ok
            stats = cluster.stats()
            # The shard protocol served commands, but no shard executed a
            # whole routed request.
            assert stats["executor.kind"] == "cluster"
            for shard in (0, 1):
                assert stats[f"cluster.shard{shard}.requests"] == 0.0
                assert stats[f"cluster.shard{shard}.commands"] > 0.0
            # One fan-out is one command per shard: the counters move by
            # two between the reads — the SampleShard and the
            # ShardStatsCmd that reads them.
            assert cluster.execute(FANOUT_REQUEST).ok
            after = cluster.stats()
            for shard in (0, 1):
                key = f"cluster.shard{shard}.commands"
                assert after[key] - stats[key] == 2.0


class TestCoordinatorServingSemantics:
    """Cache, duplicate-sharing and metrics live on the coordinator."""

    def test_repeat_is_a_parent_cache_hit_with_identical_bytes(
        self, make_service, running_cluster
    ):
        request = FindInfluencersRequest("data mining", k=3)
        with running_cluster(make_service("serial"), shards=2) as cluster:
            first = cluster.execute(request)
            second = cluster.execute(request)
            assert first.ok and second.ok
            assert not first.cache_hit
            assert second.cache_hit
            assert deterministic_form(first) == deterministic_form(second)
            assert cluster.stats()["service.influencers.cache_hits"] == 1.0

    def test_replica_oracle_counters_are_summed_in_stats(
        self, make_service, running_cluster
    ):
        """A routed ``influencers`` query runs its oracle on a replica: the
        coordinator's own counters stay put and the replicas' sum reports
        the same work as the query served in-process."""
        request = FindInfluencersRequest("data mining", k=3)
        local = make_service("serial")
        assert local.execute(request).ok
        expected = local.stats()
        assert expected["best_effort.oracle_explores"] > 0.0  # a real miss
        with running_cluster(make_service("serial"), shards=2) as cluster:
            assert cluster.execute(request).ok
            stats = cluster.stats()
        for key in ("best_effort.oracle_explores", "best_effort.oracle_memo_hits"):
            assert stats[key] == 0.0
            assert stats[f"cluster.shards.{key}"] == expected[key]

    def test_batch_duplicates_are_shared(self, make_service, running_cluster):
        request = CompleteRequest(prefix="da", limit=5)
        with running_cluster(make_service("serial"), shards=2) as cluster:
            responses = cluster.execute_batch([request, request, request])
            assert [r.cache_hit for r in responses] == [False, True, True]
            assert len({deterministic_form(r) for r in responses}) == 1

    def test_cheap_request_goes_to_the_idle_shard(
        self, make_service, running_cluster
    ):
        """A routed request goes to the first shard whose pipe is free: a
        cheap ``suggest`` for user 0 is answered by shard 1 while shard 0
        is busy with a long ``radar``, without waiting for it."""
        service = make_service("serial")
        gate = gate_radar(service)
        with running_cluster(service, shards=2) as cluster:
            with radar_holding_shard0(cluster, gate) as long_request:
                cheap = cluster.execute(SuggestKeywordsRequest(user=0, k=2))
                assert cheap.ok
                assert long_request.is_alive()  # answered, radar still running
            assert not long_request.is_alive()
            stats = cluster.stats()
        assert stats["cluster.shard0.requests"] == 1.0  # the radar
        assert stats["cluster.shard1.requests"] == 1.0  # the suggestion

    def test_stats_do_not_wait_for_a_busy_shard(
        self, make_service, running_cluster
    ):
        """``stats()`` reports a shard whose pipe is in use as busy instead
        of waiting for it, and still reads the idle shard's counters."""
        service = make_service("serial")
        gate = gate_radar(service)
        with running_cluster(service, shards=2) as cluster:
            with radar_holding_shard0(cluster, gate) as long_request:
                started = time.perf_counter()
                stats = cluster.stats()
                elapsed = time.perf_counter() - started
                assert long_request.is_alive()  # shard 0 was busy throughout
            assert not long_request.is_alive()
            after = cluster.stats()
        assert elapsed < 0.05
        assert stats["cluster.shard0.busy"] == 1.0
        assert "cluster.shard0.requests" not in stats
        assert stats["cluster.shard1.busy"] == 0.0
        assert stats["cluster.shard1.requests"] == 0.0
        assert after["cluster.shard0.busy"] == 0.0
        assert after["cluster.shard0.requests"] == 1.0  # the radar

    @pytest.mark.xfail(
        strict=True,
        raises=RoutedRequestWaited,
        reason="ROADMAP item 9: _distributed_cover holds every shard's pipe "
        "lock for the whole targeted fan-out, so a routed request queues "
        "behind it",
    )
    def test_routed_request_does_not_wait_for_a_fan_out(
        self, make_service, running_cluster, monkeypatch
    ):
        """A cheap routed ``suggest`` answers while a targeted fan-out is
        still sampling on every shard."""
        gate = multiprocessing.get_context("fork").Event()
        original = worker.sample_packed_rr_sets

        def gated_sample(*args, **kwargs):
            gate.wait(timeout=5.0)
            return original(*args, **kwargs)

        # Patched before the fork, so every shard samples behind the gate.
        monkeypatch.setattr(worker, "sample_packed_rr_sets", gated_sample)
        with running_cluster(make_service("serial"), shards=2) as cluster:
            fan_out = threading.Thread(
                target=cluster.execute, args=(FANOUT_REQUEST,)
            )
            answers = []
            cheap = threading.Thread(
                target=lambda: answers.append(
                    cluster.execute(SuggestKeywordsRequest(user=0, k=2))
                )
            )
            fan_out.start()
            try:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not all(
                    handle.lock.locked() for handle in cluster._handles
                ):
                    time.sleep(0.01)
                assert all(handle.lock.locked() for handle in cluster._handles)
                cheap.start()
                cheap.join(timeout=0.5)
                answered_in_time = not cheap.is_alive()
            finally:
                gate.set()
                fan_out.join(timeout=20.0)
                if cheap.ident is not None:  # started
                    cheap.join(timeout=20.0)
            assert not fan_out.is_alive() and not cheap.is_alive()
            assert len(answers) == 1 and answers[0].ok
        if not answered_in_time:
            raise RoutedRequestWaited("suggest waited > 0.5 s for the fan-out")

    def test_malformed_and_invalid_requests_match_serial_bytes(
        self, make_service, running_cluster
    ):
        service = make_service("serial")
        bad_wire = '{"service": "influencers", "keywords": "data mining", "k": -1}'
        unknown = {"service": "no_such_service"}
        serial_forms = golden_forms(
            [service.execute(bad_wire), service.execute(unknown)]
        )
        with running_cluster(make_service("serial"), shards=2) as cluster:
            cluster_forms = golden_forms(
                [cluster.execute(bad_wire), cluster.execute(unknown)]
            )
        assert cluster_forms == serial_forms

    def test_stats_request_reports_cluster_identity(
        self, make_service, running_cluster
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            response = cluster.execute(StatsRequest())
            assert response.ok
            assert response.payload["executor.kind"] == "cluster"
            assert response.payload["executor.shards"] == 2.0
            assert response.payload["executor.shards_alive"] == 2.0
            assert response.payload["execution.backend"] == "serial"

    def test_rate_limit_is_enforced_at_the_coordinator(
        self, make_service, running_cluster
    ):
        """The configured limiter runs once, cluster-wide — not per shard."""
        backend = make_service("serial").backend
        with running_cluster(
            backend, shards=2, rate_limit=2.0, clock=lambda: 0.0
        ) as cluster:
            # burst = 2 tokens, frozen clock = no refill: two distinct
            # requests pass (whichever shard serves them), the third is
            # shed with a structured 429 envelope.
            first = cluster.execute(CompleteRequest(prefix="da"))
            second = cluster.execute(CompleteRequest(prefix="cl"))
            third = cluster.execute(CompleteRequest(prefix="fe"))
            assert first.ok and second.ok
            assert not third.ok
            assert third.error.code == "rate_limited"
            assert cluster.stats()["service.complete.errors"] == 1.0

    def test_close_is_idempotent_and_ends_serving(
        self, make_service, running_cluster
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            assert cluster.execute(CompleteRequest(prefix="da")).ok
            cluster.close()
            cluster.close()
            response = cluster.execute(CompleteRequest(prefix="da"))
            assert not response.ok
            assert response.error.code == "internal_error"
