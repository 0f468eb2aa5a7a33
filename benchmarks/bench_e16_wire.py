"""E16 — wire transport: over-the-wire vs in-process latency per request type.

The serving question PR 4 opens: what does the HTTP hop cost on top of the
dispatcher?  For each request type we measure the same request executed

* **in process** — ``OctopusService.execute`` (the floor), and
* **over the wire** — ``OctopusClient.execute`` against a threaded
  :class:`~repro.server.OctopusHTTPServer` on loopback, with a persistent
  (keep-alive) connection.

Both paths run **warm**: the very first execution populates the result
cache, so the pair isolates transport + envelope cost from index compute
(cold compute cost is E1/E4's business).  ``extra_info`` records the
response payload size — wire overhead scales with serialized bytes — and
the in-process mean so the history keeps the per-type overhead ratio.

``BENCH_SMOKE=1`` shrinks the backend (see ``conftest.py``); the CI
bench-smoke job executes this module with ``--benchmark-disable`` so the
serving benchmark code cannot rot.
"""

import pytest

from repro.server import OctopusClient, serve_in_background
from repro.service import (
    CompleteRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    StatsRequest,
    SuggestKeywordsRequest,
)

#: One representative request per service family, cheapest to heaviest.
WIRE_REQUESTS = {
    "complete": CompleteRequest(prefix="da", limit=10),
    "radar": RadarRequest("data mining"),
    "stats": StatsRequest(),
    "suggest": SuggestKeywordsRequest(user=0, k=2),
    "influencers": FindInfluencersRequest("data mining", k=5),
}


@pytest.fixture(scope="module")
def wire_service(bench_system):
    """One warm dispatcher shared by both sides of every comparison."""
    service = OctopusService(bench_system)
    for request in WIRE_REQUESTS.values():
        response = service.execute(request)
        assert response.ok, response.error
    return service


@pytest.fixture(scope="module")
def wire_client(wire_service):
    """A keep-alive client against a loopback server over the dispatcher."""
    server = serve_in_background(wire_service, request_timeout=30.0)
    client = OctopusClient(server.url, timeout=30.0)
    yield client
    client.close()
    server.shutdown_gracefully()


@pytest.mark.benchmark(group="e16-wire")
@pytest.mark.parametrize("name", sorted(WIRE_REQUESTS))
def test_in_process_latency(benchmark, name, wire_service):
    """Floor: the warm dispatcher without any socket in the path."""
    request = WIRE_REQUESTS[name]
    response = benchmark(wire_service.execute, request)
    assert response.ok
    benchmark.extra_info["request_type"] = name
    benchmark.extra_info["payload_bytes"] = len(response.to_json())


@pytest.mark.benchmark(group="e16-wire")
@pytest.mark.parametrize("name", sorted(WIRE_REQUESTS))
def test_over_the_wire_latency(benchmark, name, wire_service, wire_client):
    """The same warm request through HTTP on a persistent connection."""
    import time

    request = WIRE_REQUESTS[name]
    # Average the in-process floor over a small loop: a single execute()
    # call jitters by an order of magnitude, which would dominate the
    # recorded overhead ratio.
    floor_rounds = 50
    started = time.perf_counter()
    for _ in range(floor_rounds):
        floor = wire_service.execute(request)
    in_process_seconds = (time.perf_counter() - started) / floor_rounds
    assert floor.ok

    response = benchmark(wire_client.execute, request)
    assert response.ok
    benchmark.extra_info["request_type"] = name
    benchmark.extra_info["payload_bytes"] = len(response.to_json())
    benchmark.extra_info["in_process_seconds"] = round(in_process_seconds, 6)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["wire_overhead_ratio"] = round(
            benchmark.stats.stats.mean / max(in_process_seconds, 1e-9), 3
        )


@pytest.mark.benchmark(group="e16-wire")
def test_batch_amortizes_the_wire(benchmark, wire_service, wire_client):
    """One /batch POST vs N /query POSTs: the HTTP hop amortizes."""
    requests = [WIRE_REQUESTS[name] for name in sorted(WIRE_REQUESTS)] * 4

    responses = benchmark(wire_client.execute_batch, requests)
    assert all(response.ok for response in responses)
    benchmark.extra_info["batch_size"] = len(requests)
