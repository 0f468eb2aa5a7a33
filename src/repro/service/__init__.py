"""Typed service layer: the single front door to the OCTOPUS system.

Every online capability — keyword influence maximization, keyword
suggestion, path exploration, auto-completion, radar interpretation and
statistics — is addressed with a typed request and answered with a uniform
:class:`~repro.service.responses.ServiceResponse` envelope.  The
:class:`~repro.service.dispatcher.OctopusService` dispatcher adds the
cross-cutting serving concerns (result caching, metrics, validation,
optional rate limiting, batch execution) once, for every entry point::

    from repro import Octopus, OctopusService, FindInfluencersRequest

    service = OctopusService(Octopus.from_dataset(dataset))
    response = service.execute(FindInfluencersRequest("data mining", k=5))
    assert response.ok
    print(response.payload["labels"], response.latency_ms)

Requests and responses serialize losslessly to JSON, so query streams can
be logged, replayed and served over a wire.

The dispatcher is safe to call from several threads at once (both HTTP
front ends do).  To compute on forked replicas instead, wrap it in a
:class:`~repro.cluster.ClusterCoordinator` — the same stack ending in
"compute on an idle replica"::

    with ClusterCoordinator(service, shards=4, fan_out=False) as executor:
        responses = executor.execute_batch(requests)
"""

from repro.service.dispatcher import OctopusService
from repro.service.middleware import (
    CacheMiddleware,
    Counters,
    MetricsMiddleware,
    Middleware,
    RateLimitMiddleware,
    ServiceMetrics,
    ValidationMiddleware,
)
from repro.service.requests import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    RadarRequest,
    ServiceRequest,
    StatsRequest,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    known_services,
    request_from_dict,
    request_from_json,
)
from repro.service.responses import (
    ServiceError,
    ServiceResponse,
    deterministic_form,
    jsonify,
)

__all__ = [
    "OctopusService",
    "ServiceRequest",
    "FindInfluencersRequest",
    "TargetedInfluencersRequest",
    "SuggestKeywordsRequest",
    "ExplorePathsRequest",
    "CompleteRequest",
    "RadarRequest",
    "StatsRequest",
    "ServiceResponse",
    "ServiceError",
    "ServiceMetrics",
    "Counters",
    "Middleware",
    "MetricsMiddleware",
    "ValidationMiddleware",
    "CacheMiddleware",
    "RateLimitMiddleware",
    "request_from_dict",
    "request_from_json",
    "known_services",
    "deterministic_form",
    "jsonify",
]
