"""Unit tests for ConcurrentOctopusService (thread and process modes).

The sequential-equivalence matrix lives in ``test_service_dispatcher.py``
(which runs against both executors); this module covers what is *specific*
to concurrency — in-flight de-duplication, failure isolation among
duplicates, the process-mode parent cache/metrics, and lifecycle.
"""

import threading

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.service import (
    CompleteRequest,
    ConcurrentOctopusService,
    FindInfluencersRequest,
    OctopusService,
    StatsRequest,
    TargetedInfluencersRequest,
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
            oracle_samples=15,
            seed=29,
        ),
    )


class TestConstruction:
    def test_wraps_bare_octopus_with_kwargs(self, backend):
        with ConcurrentOctopusService(
            backend, workers=2, cache_capacity=7
        ) as executor:
            assert executor.cache.capacity == 7
            assert executor.backend is backend

    def test_rejects_kwargs_with_existing_service(self, backend):
        service = OctopusService(backend)
        with pytest.raises(ValidationError):
            ConcurrentOctopusService(service, cache_capacity=7)

    def test_rejects_unknown_mode(self, backend):
        with pytest.raises(ValidationError):
            ConcurrentOctopusService(backend, mode="fibers")

    def test_rejects_non_service(self):
        with pytest.raises(ValidationError):
            ConcurrentOctopusService(object())

    def test_rejects_nonpositive_workers(self, backend):
        with pytest.raises(ValidationError):
            ConcurrentOctopusService(backend, workers=0)


class TestInFlightDeduplication:
    def test_duplicates_share_one_computation(self, backend):
        service = OctopusService(backend)
        calls = []
        gate = threading.Event()
        original = service._handlers["complete"]

        def slow(request):
            calls.append(request)
            gate.wait(timeout=5.0)
            return original(request)

        service._handlers["complete"] = slow
        try:
            with ConcurrentOctopusService(service, workers=4) as executor:
                futures = [
                    executor.submit(CompleteRequest(prefix="da"))
                    for _ in range(4)
                ]
                gate.set()
                responses = [future.result(timeout=10) for future in futures]
        finally:
            service._handlers["complete"] = original
        assert len(calls) == 1  # one leader computed
        assert all(response.ok for response in responses)
        assert sum(response.cache_hit for response in responses) == 3
        assert all(
            response.payload == responses[0].payload for response in responses
        )
        assert executor.stats()["executor.shared_inflight"] == 3.0

    def test_leader_failure_not_shared(self, backend):
        service = OctopusService(backend)
        calls = []
        gate = threading.Event()

        def broken(request):
            calls.append(request)
            gate.wait(timeout=5.0)
            raise RuntimeError("index on fire")

        original = service._handlers["complete"]
        service._handlers["complete"] = broken
        try:
            with ConcurrentOctopusService(service, workers=4) as executor:
                futures = [
                    executor.submit(CompleteRequest(prefix="da"))
                    for _ in range(3)
                ]
                gate.set()
                responses = [future.result(timeout=10) for future in futures]
        finally:
            service._handlers["complete"] = original
        # every duplicate recomputed for itself; nobody was handed a failure
        assert len(calls) == 3
        assert all(not response.ok for response in responses)
        assert all(not response.cache_hit for response in responses)
        assert all(
            response.error.code == "internal_error" for response in responses
        )

    def test_uncacheable_requests_never_deduplicate(self, backend):
        with ConcurrentOctopusService(backend, workers=2) as executor:
            first = executor.execute(StatsRequest())
            second = executor.execute(StatsRequest())
            assert first.ok and second.ok
            assert executor.stats()["executor.shared_inflight"] == 0.0

    def test_concurrent_submissions_from_many_threads(self, backend):
        with ConcurrentOctopusService(backend, workers=4) as executor:
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
            assert all(response.ok for response in responses)
            payloads = [response.payload for response in responses]
            assert all(payload == payloads[0] for payload in payloads)
            # exactly one computation: everyone else shared in flight or hit
            # the LRU cache afterwards
            assert sum(not response.cache_hit for response in responses) == 1


class TestProcessMode:
    def test_executes_and_caches_at_the_parent(self, backend):
        service = OctopusService(backend)
        with ConcurrentOctopusService(
            service, workers=2, mode="processes"
        ) as executor:
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
        with ConcurrentOctopusService(
            backend, workers=2, mode="processes"
        ) as executor:
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

        Worker replicas have their result cache disabled at pool init, so
        after a parent-side ``cache.clear()`` a repeated query really
        recomputes instead of coming back as a stale worker-cache hit.
        """
        service = OctopusService(backend)
        with ConcurrentOctopusService(
            service, workers=1, mode="processes"
        ) as executor:
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
        with ConcurrentOctopusService(
            backend, workers=2, mode="processes"
        ) as executor:
            executor.execute(CompleteRequest(prefix="da"))
            stats = executor.stats()
            assert stats["executor.process_mode"] == 1.0
            assert stats["executor.workers"] == 2.0


class TestLifecycle:
    @pytest.mark.parametrize("mode", ["threads", "processes"])
    def test_close_is_idempotent(self, backend, mode):
        executor = ConcurrentOctopusService(backend, workers=2, mode=mode)
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

    def test_workload_engine_accepts_executor(self, backend):
        from repro.engine.workload import (
            QueryWorkload,
            WorkloadConfig,
            run_workload,
        )

        service = OctopusService(backend)
        workload = QueryWorkload.generate(
            service, WorkloadConfig(num_queries=12, seed=5)
        )
        with ConcurrentOctopusService(service, workers=2) as executor:
            report = run_workload(executor, workload)
        assert report.total_queries == 12
        answered = sum(
            stats["count"]
            for name, stats in report.per_service.items()
            if name != "errors"
        )
        errors = report.per_service.get("errors", {}).get("count", 0)
        assert answered + errors == 12

    def test_run_workload_workers_parameter(self, backend):
        from repro.engine.workload import (
            QueryWorkload,
            WorkloadConfig,
            run_workload,
        )

        service = OctopusService(backend)
        workload = QueryWorkload.generate(
            service, WorkloadConfig(num_queries=10, seed=6)
        )
        report = run_workload(service, workload, workers=3)
        assert report.total_queries == 10
