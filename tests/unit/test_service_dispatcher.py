"""Unit tests for the OctopusService dispatcher and middleware stack.

Covers the service-layer acceptance bar: execute() never raises (errors
become envelopes), every live response round-trips through JSON, batch
execution matches sequential execution, and middleware compose in the
documented order.

The whole matrix runs twice: once against the sequential dispatcher and
once against the forked-replica executor (``--executor processes``, a
:class:`~repro.cluster.ClusterCoordinator` without fan-out), which must be
a drop-in executor with identical envelope semantics.
"""

import json

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    ServiceResponse,
    StatsRequest,
    SuggestKeywordsRequest,
)
from repro.service.middleware import RateLimitMiddleware, ServiceMetrics


@pytest.fixture(scope="module")
def backend(citation_dataset):
    return Octopus.from_dataset(
        citation_dataset,
        config=OctopusConfig(
            num_sketches=40,
            num_topic_samples=4,
            topic_sample_rr_sets=200,
            oracle_samples=20,
            seed=17,
        ),
    )


@pytest.fixture(params=["sequential", "concurrent"])
def service(request, backend):
    if request.param == "sequential":
        yield OctopusService(backend)
        return
    executor = ClusterCoordinator(
        OctopusService(backend), shards=2, shard_timeout=20.0, fan_out=False
    )
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def active_user(backend):
    return sorted(backend.user_keywords)[0]


class TestExecute:
    def test_influencers_success(self, service):
        response = service.execute(FindInfluencersRequest("data mining", k=3))
        assert response.ok
        assert response.service == "influencers"
        assert len(response.payload["seeds"]) == 3
        assert len(response.payload["labels"]) == 3
        assert response.payload["spread"] > 0
        assert response.latency_ms > 0

    def test_accepts_dict_and_json(self, service):
        as_dict = service.execute(
            {"service": "complete", "prefix": "da", "limit": 3}
        )
        as_json = service.execute(
            json.dumps({"service": "complete", "prefix": "da", "limit": 3})
        )
        assert as_dict.ok and as_json.ok
        assert as_dict.payload == as_json.payload

    def test_suggest_and_paths(self, service, active_user):
        suggest = service.execute(SuggestKeywordsRequest(user=active_user, k=2))
        assert suggest.ok
        assert suggest.payload["target"] == active_user
        paths = service.execute(
            ExplorePathsRequest(user=active_user, threshold=0.05)
        )
        assert paths.ok
        assert paths.payload["root"] == active_user

    def test_stats_includes_all_layers(self, service):
        service.execute(FindInfluencersRequest("data mining", k=2))
        response = service.execute(StatsRequest())
        assert response.ok
        payload = response.payload
        assert payload["graph.num_nodes"] > 0  # backend layer
        assert "cache.hit_rate" in payload  # cache layer
        assert payload["service.influencers.requests"] >= 1  # metrics layer

    def test_never_raises_on_malformed_input(self, service):
        for bad in (
            "{not json",
            '{"service": "teleport"}',
            '{"keywords": ["x"]}',
            {"service": "influencers", "surprise": 1},
            12345,
        ):
            response = service.execute(bad)
            assert isinstance(response, ServiceResponse)
            assert not response.ok
            assert response.error.code == "malformed_request"

    def test_invalid_request_envelope(self, service):
        response = service.execute(FindInfluencersRequest("data mining", k=0))
        assert not response.ok
        assert response.error.code == "invalid_request"

    def test_backend_validation_becomes_envelope(self, service):
        response = service.execute(
            FindInfluencersRequest("definitely not a keyword")
        )
        assert not response.ok
        assert response.error.code == "invalid_request"
        assert "unknown keyword" in response.error.message

    def test_unknown_user_envelope(self, service):
        response = service.execute(SuggestKeywordsRequest(user="Nobody Nowhere"))
        assert not response.ok
        assert "unknown user" in response.error.message

    @pytest.mark.parametrize(
        "request_obj",
        [
            FindInfluencersRequest("data mining", k=2),
            RadarRequest("em algorithm"),
            CompleteRequest(prefix="da"),
            StatsRequest(),
            FindInfluencersRequest("definitely not a keyword"),
        ],
        ids=["influencers", "radar", "complete", "stats", "error"],
    )
    def test_every_response_json_round_trips(self, service, request_obj):
        response = service.execute(request_obj)
        assert ServiceResponse.from_json(response.to_json()) == response

    def test_suggest_and_paths_responses_round_trip(self, service, active_user):
        for request_obj in (
            SuggestKeywordsRequest(user=active_user, k=2),
            ExplorePathsRequest(user=active_user, threshold=0.05),
        ):
            response = service.execute(request_obj)
            assert response.ok
            assert ServiceResponse.from_json(response.to_json()) == response

    def test_path_payload_rebuilds_tree(self, service, active_user):
        from repro.core.paths import PathTree

        response = service.execute(
            ExplorePathsRequest(user=active_user, threshold=0.05)
        )
        tree = PathTree.from_dict(response.payload)
        assert tree.root == active_user
        assert tree.to_dict() == response.payload


class TestCaching:
    def test_targeted_dispatch_and_cache(self, service):
        from repro.service import TargetedInfluencersRequest

        request = TargetedInfluencersRequest(
            keywords="data mining", k=2, num_sets=200
        )
        first = service.execute(request)
        second = service.execute(request)
        assert first.ok
        assert second.cache_hit
        assert second.payload["seeds"] == first.payload["seeds"]

    def test_cached_payload_mutation_does_not_poison_cache(self, service):
        request = CompleteRequest(prefix="da")
        first = service.execute(request)
        first.payload["completions"].append(["POISON", 999])
        second = service.execute(request)
        assert second.cache_hit
        assert ["POISON", 999] not in second.payload["completions"]

    def test_repeat_query_hits_cache(self, service):
        request = FindInfluencersRequest("data mining", k=3)
        first = service.execute(request)
        second = service.execute(request)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.payload == first.payload
        assert service.cache.hits == 1

    def test_equivalent_wire_forms_share_cache(self, service):
        typed = FindInfluencersRequest("data mining", k=3)
        service.execute(typed)
        wire = service.execute(typed.to_json())
        assert wire.cache_hit

    def test_stats_never_cached(self, service):
        first = service.execute(StatsRequest())
        second = service.execute(StatsRequest())
        assert not first.cache_hit and not second.cache_hit

    def test_errors_not_cached(self, service):
        request = FindInfluencersRequest("definitely not a keyword")
        service.execute(request)
        second = service.execute(request)
        assert not second.cache_hit

    def test_cache_capacity_from_backend_config(self, backend):
        assert OctopusService(backend).cache.capacity == (
            backend.config.cache_capacity
        )
        assert OctopusService(backend, cache_capacity=7).cache.capacity == 7


class TestBatch:
    def test_batch_matches_sequential(self, service, backend, active_user):
        requests = [
            FindInfluencersRequest("data mining", k=3),
            SuggestKeywordsRequest(user=active_user, k=2),
            CompleteRequest(prefix="da"),
            FindInfluencersRequest("clustering", k=2),
            ExplorePathsRequest(user=active_user, threshold=0.05),
        ]
        sequential = [
            OctopusService(backend).execute(request) for request in requests
        ]
        batched = OctopusService(backend).execute_batch(requests)

        def comparable(response):
            payload = dict(response.payload)
            payload.pop("elapsed_seconds", None)  # wall clock, not a result
            return payload

        assert list(map(comparable, batched)) == list(
            map(comparable, sequential)
        )
        assert [r.ok for r in batched] == [r.ok for r in sequential]
        assert [r.service for r in batched] == [r.service for r in sequential]

    def test_batch_preserves_input_order(self, service, active_user):
        requests = [
            CompleteRequest(prefix="da"),
            FindInfluencersRequest("data mining", k=2),
            CompleteRequest(prefix="cl"),
        ]
        responses = service.execute_batch(requests)
        assert [r.service for r in responses] == [
            "complete",
            "influencers",
            "complete",
        ]

    def test_batch_shares_duplicates(self, backend):
        service = OctopusService(backend)
        requests = [
            FindInfluencersRequest("data mining", k=3),
            FindInfluencersRequest("data mining", k=3),
            FindInfluencersRequest("data mining", k=3),
        ]
        responses = service.execute_batch(requests)
        assert [r.cache_hit for r in responses] == [False, True, True]
        assert responses[0].payload == responses[2].payload

    def test_batch_isolates_failures(self, service):
        responses = service.execute_batch(
            [
                {"service": "complete", "prefix": "da"},
                {"service": "teleport"},
                "{broken json",
                {"service": "complete", "prefix": "da"},
            ]
        )
        assert [r.ok for r in responses] == [True, False, False, True]
        assert responses[1].error.code == "malformed_request"

    def test_empty_batch(self, service):
        assert service.execute_batch([]) == []

    def test_batch_survives_unhashable_field(self, service):
        # a list-valued user can't be hashed for dedup; it must fail only
        # its own slot with an envelope, not crash the batch
        responses = service.execute_batch(
            [
                {"service": "suggest", "user": [1]},
                {"service": "complete", "prefix": "da"},
            ]
        )
        assert [r.ok for r in responses] == [False, True]
        assert responses[0].error.code == "invalid_request"

    def test_batch_failures_not_shared_as_cache_hits(self, service):
        request = SuggestKeywordsRequest(user="Nobody Nowhere")
        responses = service.execute_batch([request, request])
        assert [r.ok for r in responses] == [False, False]
        assert all(not r.cache_hit for r in responses)

    def test_batch_duplicate_latency_is_share_cost(self, backend):
        service = OctopusService(backend)
        request = FindInfluencersRequest("data mining", k=3)
        computed, duplicate, _ = service.execute_batch(
            [request, request, request]
        )
        assert duplicate.cache_hit
        # the duplicate reports the (tiny) share cost, not the compute cost
        assert duplicate.latency_ms < computed.latency_ms


class TestMiddleware:
    def test_user_middleware_runs_in_order(self, backend):
        trace = []

        def outer(request, call_next):
            trace.append("outer:in")
            response = call_next(request)
            trace.append("outer:out")
            return response

        def inner(request, call_next):
            trace.append("inner:in")
            response = call_next(request)
            trace.append("inner:out")
            return response

        service = OctopusService(backend, middleware=[outer, inner])
        service.execute(CompleteRequest(prefix="da"))
        assert trace == ["outer:in", "inner:in", "inner:out", "outer:out"]

    def test_user_middleware_sits_outside_cache(self, backend):
        seen = []

        def spy(request, call_next):
            seen.append(request.service)
            return call_next(request)

        service = OctopusService(backend, middleware=[spy])
        request = CompleteRequest(prefix="da")
        service.execute(request)
        hit = service.execute(request)
        # spy runs on both calls: it wraps the cache, which answered the 2nd
        assert seen == ["complete", "complete"]
        assert hit.cache_hit

    def test_validation_runs_before_cache_and_backend(self, backend):
        reached = []

        def spy(request, call_next):
            reached.append(request.service)
            return call_next(request)

        service = OctopusService(backend, middleware=[spy])
        response = service.execute(FindInfluencersRequest("x", k=-1))
        # structural validation rejected the request before the spy layer
        assert not response.ok
        assert reached == []

    def test_metrics_outermost_records_everything(self, backend):
        service = OctopusService(backend)
        request = CompleteRequest(prefix="da")
        service.execute(request)
        service.execute(request)  # cache hit
        service.execute("{broken")  # malformed: coercion fails pre-stack
        snapshot = service.metrics.snapshot()
        assert snapshot["service.complete.requests"] == 2.0
        assert snapshot["service.complete.cache_hits"] == 1.0
        assert snapshot["service.complete.hit_rate"] == 0.5
        assert snapshot["service.complete.mean_latency_ms"] > 0

    def test_rate_limit_rejects_over_budget(self, backend):
        clock = {"now": 0.0}
        service = OctopusService(
            backend, rate_limit=2.0, clock=lambda: clock["now"]
        )
        first = service.execute(CompleteRequest(prefix="da"))
        second = service.execute(CompleteRequest(prefix="cl"))
        third = service.execute(CompleteRequest(prefix="em"))
        assert first.ok and second.ok
        assert not third.ok
        assert third.error.code == "rate_limited"
        clock["now"] += 1.0  # refill 2 tokens
        recovered = service.execute(CompleteRequest(prefix="em"))
        assert recovered.ok

    def test_rate_limiter_standalone_refill_cap(self):
        clock = {"now": 0.0}
        limiter = RateLimitMiddleware(
            1.0, burst=1, clock=lambda: clock["now"]
        )
        ok = ServiceResponse.success("stats", {})
        assert limiter(StatsRequest(), lambda req: ok) is not None
        rejected = limiter(StatsRequest(), lambda req: ok)
        assert rejected.error.code == "rate_limited"
        assert rejected.error.details["retry_after_seconds"] > 0

    def test_metrics_reset(self):
        metrics = ServiceMetrics()
        metrics.record(ServiceResponse.success("stats", {}))
        assert metrics.snapshot()
        metrics.reset()
        assert metrics.snapshot() == {}

    def test_internal_errors_become_envelopes(self, backend):
        service = OctopusService(backend)
        original = service._handlers["complete"]

        def explode(request):
            return 1 / 0

        service._handlers["complete"] = explode
        try:
            response = service.execute(CompleteRequest(prefix="da"))
        finally:
            service._handlers["complete"] = original
        assert not response.ok
        assert response.error.code == "internal_error"
        assert "ZeroDivisionError" in response.error.message
