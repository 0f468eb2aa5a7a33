#!/usr/bin/env python
"""Online serving through the typed service API: envelopes, batching, cache.

Demonstrates the "online influence analysis ... instant results" feature,
all through :class:`repro.OctopusService` — the request/response front door
every client shares:

1. a single typed request and its JSON wire form (log-replayable),
2. batch execution de-duplicating repeated queries,
3. a fixed list of mixed requests on forked whole-query replicas
   (:class:`repro.ClusterCoordinator` with ``fan_out=False``, i.e.
   ``octopus serve --executor processes`` — same envelopes, one cache and
   one set of metrics in the serving process),
4. the serving metrics the middleware stack collects for free.

Run:  python examples/online_serving.py
"""

from repro import (
    CitationNetworkGenerator,
    ClusterCoordinator,
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    Octopus,
    OctopusConfig,
    OctopusService,
    ServiceResponse,
    SuggestKeywordsRequest,
)
from repro.service import deterministic_form

#: Mixed requests; the repeated query comes back from the cache.
REQUESTS = [
    FindInfluencersRequest("data mining", k=5),
    FindInfluencersRequest("clustering", k=5),
    SuggestKeywordsRequest(user=0, k=2),
    ExplorePathsRequest(user=0, threshold=0.05),
    CompleteRequest(prefix="da"),
    FindInfluencersRequest("data mining", k=5),
]


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=500,
        citations_per_paper=4,
        papers_per_author=3,
        seed=61,
    ).generate()
    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=150,
            num_topic_samples=16,
            topic_sample_rr_sets=1200,
            seed=62,
        ),
    )
    service = OctopusService(system)

    print("== one typed request, and its wire form ==")
    request = FindInfluencersRequest("data mining", k=5)
    response = service.execute(request)
    print(f"request JSON : {request.to_json()}")
    print(f"top seeds    : {response.payload['labels'][:3]}")
    print(f"latency      : {response.latency_ms:.1f} ms "
          f"(cache_hit={response.cache_hit})")
    replayed = ServiceResponse.from_json(response.to_json())
    assert replayed == response  # responses round-trip losslessly

    print("\n== batch execution (duplicates shared, input order kept) ==")
    batch = [
        FindInfluencersRequest("data mining", k=5),
        FindInfluencersRequest("clustering", k=5),
        FindInfluencersRequest("data mining", k=5),  # duplicate → shared
    ]
    responses = service.execute_batch(batch)
    for req, resp in zip(batch, responses):
        print(f"  {req.keywords[0]:<14s} ok={resp.ok} "
              f"cache_hit={resp.cache_hit} {resp.latency_ms:.2f} ms")

    print("\n== forked replicas (2 whole-query replicas, same envelopes) ==")
    local = [deterministic_form(service.execute(req)) for req in REQUESTS]
    service.cache.clear()
    with ClusterCoordinator(service, shards=2, fan_out=False) as executor:
        for req, expected in zip(REQUESTS, local):
            resp = executor.execute(req)
            assert deterministic_form(resp) == expected  # same bytes
            print(f"  {req.service:<12s} ok={resp.ok} "
                  f"cache_hit={resp.cache_hit} {resp.latency_ms:.2f} ms")
        alive = executor.health()["shards_alive"]
        print(f"  replicas alive: {alive} of 2")

    print("\n== serving metrics (collected by the middleware stack) ==")
    for key, value in sorted(service.metrics.snapshot().items()):
        print(f"  {key:<40s} {value:.3f}")


if __name__ == "__main__":
    main()
