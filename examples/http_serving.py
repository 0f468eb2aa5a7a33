#!/usr/bin/env python
"""Serving OCTOPUS over HTTP: the wire transport end to end, in one process.

The demo paper's deployment is a long-lived server answering many small
online queries.  This example plays both sides of that wire:

1. build a system and boot :class:`repro.OctopusHTTPServer` over two
   forked whole-query replicas (``--executor processes``), on an
   ephemeral loopback port;
2. talk to it with :class:`repro.OctopusClient` — single queries, a
   de-duplicated batch, health and statistics (the same four endpoints
   ``curl`` would hit);
3. show the determinism contract crossing the socket: the served payload
   is byte-identical to in-process execution;
4. shut down gracefully — in-flight requests drain into a final metrics
   report.

Run:  python examples/http_serving.py
"""

from repro import (
    CitationNetworkGenerator,
    ClusterCoordinator,
    FindInfluencersRequest,
    CompleteRequest,
    Octopus,
    OctopusClient,
    OctopusConfig,
    OctopusService,
    RadarRequest,
    serve_in_background,
)
from repro.service import deterministic_form


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=300,
        citations_per_paper=4,
        papers_per_author=3,
        seed=61,
    ).generate()
    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=100,
            num_topic_samples=6,
            topic_sample_rr_sets=400,
            seed=7,
        ),
    )
    service = OctopusService(system)

    # -- 1. boot the server on an ephemeral port -----------------------
    executor = ClusterCoordinator(service, shards=2, fan_out=False)
    server = serve_in_background(executor)
    print(f"serving on {server.url}")
    print("endpoints: POST /query  POST /batch  GET /stats  GET /healthz\n")

    with OctopusClient(server.url) as client:
        # -- 2. the four endpoints -------------------------------------
        health = client.health()
        print(f"healthz: {health['status']} (executor {health['executor']})")

        request = FindInfluencersRequest("data mining", k=5)
        response = client.execute(request)
        print(f"\nPOST /query {request.to_json()}")
        print(f"  -> ok={response.ok} latency={response.latency_ms:.1f} ms")
        for node, label in zip(response.payload["seeds"],
                               response.payload["labels"]):
            print(f"     {label} (user {node})")

        batch = [
            CompleteRequest(prefix="da", limit=5),
            RadarRequest("data mining"),
            FindInfluencersRequest("data mining", k=5),  # duplicate: cache hit
            CompleteRequest(prefix="da", limit=5),  # duplicate: shared
        ]
        responses = client.execute_batch(batch)
        print(f"\nPOST /batch with {len(batch)} requests")
        for entry in responses:
            print(
                f"  {entry.service:<12s} ok={entry.ok} "
                f"cache_hit={entry.cache_hit}"
            )

        # -- 3. the determinism contract crosses the socket ------------
        local = service.execute(request)
        identical = deterministic_form(response) == deterministic_form(local)
        print(f"\nserved == in-process (byte-identical payload): {identical}")

        stats = client.stats()
        print("\nGET /stats (selection):")
        for key in (
            "service.influencers.requests",
            "cache.hits",
            "cache.misses",
            "http.requests",
            "executor.workers",
        ):
            print(f"  {key:<35s} {stats[key]:.1f}")

    # -- 4. graceful shutdown ------------------------------------------
    final = server.shutdown_gracefully()
    print("\ngraceful shutdown; final counters:")
    print(f"  http.requests        {final['http.requests']:.0f}")
    print(f"  http.responses.2xx   {final['http.responses.2xx']:.0f}")


if __name__ == "__main__":
    main()
