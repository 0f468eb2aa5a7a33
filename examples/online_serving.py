#!/usr/bin/env python
"""Online serving through the typed service API: envelopes, batching, cache.

Demonstrates the "online influence analysis ... instant results" feature
under realistic conditions, all through :class:`repro.OctopusService` — the
request/response front door every client shares:

1. a single typed request and its JSON wire form (log-replayable),
2. a Zipf-skewed mixed workload of request objects, cold vs. warm cache,
3. batch execution de-duplicating repeated queries,
4. the same workload on forked whole-query replicas
   (:class:`repro.ClusterCoordinator` with ``fan_out=False``, i.e.
   ``octopus serve --executor processes`` — same envelopes, one cache and
   one set of metrics in the serving process),
5. the serving metrics the middleware stack collects for free,
6. the model-refresh path — periodic EM re-fits absorbed by the
   influencer index without re-sampling its sketches.

Run:  python examples/online_serving.py
"""

import numpy as np

from repro import (
    CitationNetworkGenerator,
    ClusterCoordinator,
    FindInfluencersRequest,
    Octopus,
    OctopusConfig,
    OctopusService,
    QueryWorkload,
    ServiceResponse,
    WorkloadConfig,
    run_workload,
)
from repro.core.dynamic import DynamicInfluenceEngine
from repro.topics.em import EMConfig, TICLearner
from repro.utils.timer import Timer


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
            oracle_samples=60,
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

    print("\n== mixed query workload (Zipf-skewed, 120 queries) ==")
    workload = QueryWorkload.generate(
        service, WorkloadConfig(num_queries=120, zipf_s=1.5, seed=63)
    )
    print("\ncold cache:")
    cold = run_workload(service, workload)
    for line in cold.lines():
        print("  " + line)
    print("\nwarm cache (same workload again):")
    warm = run_workload(service, workload)
    for line in warm.lines():
        print("  " + line)

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
    service.cache.clear()
    with ClusterCoordinator(service, shards=2, fan_out=False) as executor:
        replicated = run_workload(executor, workload)
        for line in replicated.lines():
            print("  " + line)
        alive = executor.health()["shards_alive"]
        print(f"  replicas alive: {alive} of 2")

    print("\n== serving metrics (collected by the middleware stack) ==")
    for key, value in sorted(service.metrics.snapshot().items()):
        print(f"  {key:<40s} {value:.3f}")

    print("\n== streaming model refresh ==")
    engine = DynamicInfluenceEngine(
        dataset.true_edge_weights, num_sketches=600, seed=64
    )
    gamma = np.full(8, 1.0 / 8)
    star = system.find_influencers("data mining", 1).seeds[0]
    print(f"initial spread of {dataset.graph.label_of(star)}: "
          f"{engine.estimate_user_spread(star, gamma):.1f}")

    chunks = np.array_split(np.arange(len(dataset.items)), 3)
    for round_index, chunk in enumerate(chunks, start=1):
        items = [dataset.items[i] for i in chunk]
        learner = TICLearner(
            dataset.graph,
            dataset.vocabulary,
            EMConfig(num_topics=8, max_iterations=5, seed=0),
        )
        fitted = learner.fit(items)
        with Timer() as timer:
            absorbed = engine.refresh(fitted.edge_weights)
        spread = engine.estimate_user_spread(star, gamma)
        print(f"refit #{round_index}: refresh "
              f"{'absorbed in place' if absorbed else 'rebuilt sketches'} "
              f"in {timer.elapsed * 1e3:.1f} ms; spread now {spread:.1f}")

    stats = engine.statistics()
    print(f"\nrefreshes absorbed: {stats['refreshes_absorbed']:.0f}, "
          f"rebuilt: {stats['refreshes_rebuilt']:.0f}")


if __name__ == "__main__":
    main()
