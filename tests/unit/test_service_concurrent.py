"""Unit tests for the forked-replica executor behind ``--executor processes``.

:class:`~repro.cluster.ClusterCoordinator` with ``fan_out=False`` routes
every request whole to one forked replica.  The sequential-equivalence
matrix lives in ``test_service_dispatcher.py`` (which runs against both
this executor and the bare dispatcher); this module covers what is
*specific* to serving from replicas — duplicate sharing and failure
isolation among duplicates, the parent-side cache and metrics, concurrent
clients, and lifecycle.
"""

import threading

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.service import (
    CompleteRequest,
    FindInfluencersRequest,
    OctopusService,
    StatsRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def backend(citation_dataset):
    return Octopus.from_dataset(
        citation_dataset,
        config=OctopusConfig(
            num_sketches=30,
            num_topic_samples=3,
            topic_sample_rr_sets=150,
            seed=29,
        ),
    )


def replicas(service, workers=2, **kwargs):
    """The ``--executor processes`` executor over *service*."""
    return ClusterCoordinator(
        service, shards=workers, shard_timeout=20.0, fan_out=False, **kwargs
    )


def replica_requests(executor) -> float:
    """Whole requests computed on the replicas so far."""
    return sum(entry["shard.requests"] for entry in executor.shard_stats())


class TestConstruction:
    def test_wraps_bare_octopus_with_kwargs(self, backend):
        with replicas(backend, cache_capacity=7) as executor:
            assert executor.cache.capacity == 7
            assert executor.backend is backend

    def test_rejects_kwargs_with_existing_service(self, backend):
        service = OctopusService(backend)
        with pytest.raises(ValidationError):
            replicas(service, cache_capacity=7)

    def test_rejects_non_service(self):
        with pytest.raises(ValidationError):
            replicas(object())

    def test_rejects_nonpositive_workers(self, backend):
        with pytest.raises(ValidationError):
            replicas(backend, workers=0)


class TestInFlightDeduplication:
    """Duplicates in flight together — one batch — share one computation."""

    def test_duplicates_share_one_computation(self, backend):
        with replicas(OctopusService(backend)) as executor:
            responses = executor.execute_batch(
                [CompleteRequest(prefix="da")] * 4
            )
            assert replica_requests(executor) == 1.0  # one leader computed
        assert all(response.ok for response in responses)
        assert sum(response.cache_hit for response in responses) == 3
        assert all(
            response.payload == responses[0].payload for response in responses
        )

    def test_leader_failure_not_shared(self, backend):
        service = OctopusService(backend)
        original = service._handlers["complete"]

        def broken(request):
            raise RuntimeError("index on fire")

        # Patched before the fork, so every replica inherits the fault.
        service._handlers["complete"] = broken
        try:
            with replicas(service) as executor:
                responses = executor.execute_batch(
                    [CompleteRequest(prefix="da")] * 3
                )
                computed = replica_requests(executor)
        finally:
            service._handlers["complete"] = original
        # every duplicate recomputed for itself; nobody was handed a failure
        assert computed == 3.0
        assert all(not response.ok for response in responses)
        assert all(not response.cache_hit for response in responses)
        assert all(
            response.error.code == "internal_error" for response in responses
        )

    def test_uncacheable_requests_never_deduplicate(self, backend):
        with replicas(backend) as executor:
            first, second = executor.execute_batch([StatsRequest()] * 2)
            assert first.ok and second.ok
            assert not first.cache_hit and not second.cache_hit

    def test_concurrent_submissions_from_many_threads(self, backend):
        with replicas(backend) as executor:
            request = FindInfluencersRequest("data mining", k=2)
            responses = []
            lock = threading.Lock()

            def client() -> None:
                response = executor.execute(request)
                with lock:
                    responses.append(response)

            pool = [threading.Thread(target=client) for _ in range(6)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert len(responses) == 6
            assert all(response.ok for response in responses)
            forms = {deterministic_form(response) for response in responses}
            assert len(forms) == 1
            # Every client was answered by a replica or by the parent cache.
            computed = replica_requests(executor)
            hits = sum(response.cache_hit for response in responses)
            assert computed + hits == 6.0


class TestProcessMode:
    def test_executes_and_caches_at_the_parent(self, backend):
        service = OctopusService(backend)
        with replicas(service) as executor:
            request = TargetedInfluencersRequest(
                keywords="data mining", k=2, num_sets=150
            )
            first = executor.execute(request)
            second = executor.execute(request)
            assert first.ok
            assert not first.cache_hit
            assert second.cache_hit  # served by the parent-side cache
            assert second.payload["seeds"] == first.payload["seeds"]
            snapshot = executor.metrics.snapshot()
            assert snapshot["service.targeted.requests"] == 2.0
            assert snapshot["service.targeted.cache_hits"] == 1.0

    def test_batch_preserves_order_and_isolates_failures(self, backend):
        with replicas(backend) as executor:
            responses = executor.execute_batch(
                [
                    CompleteRequest(prefix="da"),
                    {"service": "teleport"},
                    FindInfluencersRequest("data mining", k=2),
                ]
            )
            assert [response.ok for response in responses] == [True, False, True]
            assert responses[1].error.code == "malformed_request"
            assert [response.service for response in responses] == [
                "complete",
                "teleport",
                "influencers",
            ]

    def test_parent_cache_clear_reaches_workers(self, backend):
        """Forked workers must not serve results the parent has dropped.

        Replicas run only the innermost handler — their inherited result
        cache is never consulted — so after a parent-side ``cache.clear()``
        a repeated query really recomputes instead of coming back as a
        stale replica-cache hit.
        """
        service = OctopusService(backend)
        with replicas(service, workers=1) as executor:
            request = TargetedInfluencersRequest(
                keywords="data mining", k=2, num_sets=150
            )
            first = executor.execute(request)
            assert first.ok and not first.cache_hit
            service.cache.clear()
            again = executor.execute(request)
            assert again.ok
            assert not again.cache_hit  # recomputed, not a stale replica hit
            assert again.payload["seeds"] == first.payload["seeds"]

    def test_stats_report_mode(self, backend):
        with replicas(backend) as executor:
            executor.execute(CompleteRequest(prefix="da"))
            stats = executor.stats()
            assert stats["executor.kind"] == "processes"
            assert stats["executor.workers"] == 2.0
            for removed in (
                "executor.inflight",
                "executor.shared_inflight",
                "executor.process_mode",
            ):
                assert removed not in stats


class TestLifecycle:
    @pytest.mark.parametrize("mode", ["processes"])
    def test_close_is_idempotent(self, backend, mode):
        executor = replicas(backend)
        request = CompleteRequest(prefix="da")
        assert executor.execute(request).ok
        executor.close()
        executor.close()
        assert executor.closed
        # Closed means closed: the envelope is the error contract (never an
        # exception), and not even the cached request is served.
        refused = [executor.execute(request)] + executor.execute_batch(
            [request, {"service": "teleport"}]
        )
        for response in refused:
            assert not response.ok and not response.cache_hit
            assert response.error.code == "internal_error"
        assert executor.stats()["service.complete.requests"] == 1.0
