"""OCTOPUS: an online topic-aware influence analysis system (ICDE 2018).

A full reproduction of the OCTOPUS system: topic-aware independent-cascade
modelling with EM learning, keyword-based influence maximization with a
best-effort bound framework and topic-sample index, personalized influential
keyword suggestion over an influencer index, and MIA-based influential-path
exploration.  The :class:`~repro.core.octopus.Octopus` facade is the compute
backend; the typed :class:`~repro.service.OctopusService` layer in front of
it is the recommended entry point — it adds result caching, metrics,
validation envelopes and batch execution, and speaks JSON.

Quickstart::

    from repro import (
        CitationNetworkGenerator, Octopus, OctopusService,
        FindInfluencersRequest,
    )

    dataset = CitationNetworkGenerator(num_researchers=500, seed=7).generate()
    service = OctopusService(Octopus.from_dataset(dataset))
    response = service.execute(FindInfluencersRequest("data mining", k=5))
    assert response.ok  # errors come back as envelopes, never exceptions
    for node, label in zip(response.payload["seeds"],
                           response.payload["labels"]):
        print(label)

    # Requests and responses round-trip through JSON for logging/replay:
    wire = response.to_json()

``repro.server`` puts the envelopes on a socket: an HTTP server
(``octopus serve``) plus the :class:`~repro.server.OctopusClient` stub that
makes a remote server indistinguishable from a local service.
``repro.cluster`` shards the system across long-lived worker processes
behind the same executor surface (``octopus serve --executor cluster``);
shard count never changes answer bytes.

The package holds only what ``octopus serve`` and the CLI run.  The paper's
seed-selection baselines and the test-only reference engines live in the
repository's unshipped ``reference/`` package.
"""

from repro.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.core.query import InfluencerResult, KeywordQuery, KeywordSuggestionResult
from repro.datasets.citation import CitationNetworkGenerator
from repro.datasets.social import SocialNetworkGenerator
from repro.gateway import GatewayConfig, OctopusAsyncGateway, start_gateway
from repro.graph.digraph import GraphBuilder, SocialGraph
from repro.server import (
    OctopusClient,
    OctopusHTTPServer,
    OctopusRateLimitedError,
    OctopusTransportError,
    serve_in_background,
)
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    TargetedInfluencersRequest,
    OctopusService,
    RadarRequest,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
    StatsRequest,
    SuggestKeywordsRequest,
    request_from_dict,
    request_from_json,
)
from repro.topics.edges import TopicEdgeWeights
from repro.topics.model import TopicModel
from repro.topics.vocabulary import Vocabulary

__version__ = "1.2.0"

__all__ = [
    "Octopus",
    "OctopusConfig",
    "OctopusService",
    "ClusterCoordinator",
    "OctopusHTTPServer",
    "OctopusAsyncGateway",
    "GatewayConfig",
    "start_gateway",
    "OctopusClient",
    "OctopusTransportError",
    "OctopusRateLimitedError",
    "serve_in_background",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "resolve_backend",
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
    "request_from_dict",
    "request_from_json",
    "KeywordQuery",
    "InfluencerResult",
    "KeywordSuggestionResult",
    "CitationNetworkGenerator",
    "SocialNetworkGenerator",
    "SocialGraph",
    "GraphBuilder",
    "TopicEdgeWeights",
    "TopicModel",
    "Vocabulary",
    "__version__",
]
