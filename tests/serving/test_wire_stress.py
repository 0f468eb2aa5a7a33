"""Multi-client concurrency stress against one HTTP server.

N client threads × M mixed requests each — valid, repeated, malformed and
validation-failing — hammering one server over persistent connections.
The serving invariants under fire:

* **no 5xx**: client mistakes are 4xx, good requests are 200 — the server
  never breaks;
* **counter consistency**: every exchange lands in exactly one counter
  bucket, ``cache.hits + cache.misses`` equals the cacheable requests that
  reached the cache, per-service request/error totals add up exactly;
* **de-duplication observable over the wire**: identical requests in one
  ``/batch`` against a ``processes``-executor server share one
  computation.
"""

import threading

from repro.cluster import ClusterCoordinator
from repro.server import OctopusClient
from repro.service import (
    CompleteRequest,
    OctopusService,
    RadarRequest,
    StatsRequest,
)

WIRE_TIMEOUT = 20.0
NUM_THREADS = 8
#: Per-thread script: (json body, kind) where kind tallies expectations.
#: 15 requests per thread: 10 valid cacheable, 1 valid uncacheable (stats),
#: 2 malformed (never reach the service), 2 invalid (fail validation).
REQUESTS_PER_THREAD = 15


def _thread_script(thread_index: int):
    """The request mix one client thread sends, with expectation tags."""
    script = []
    for _ in range(5):  # identical across all threads → cache/dedup food
        script.append((CompleteRequest(prefix="da", limit=5).to_json(), "cacheable"))
    for repeat in range(3):  # distinct per thread → guaranteed misses
        script.append(
            (
                CompleteRequest(
                    prefix=f"t{thread_index}r{repeat}", limit=5
                ).to_json(),
                "cacheable",
            )
        )
    for _ in range(2):
        script.append((RadarRequest("data mining").to_json(), "cacheable"))
    for _ in range(2):  # unknown service: malformed, never enters the stack
        script.append(('{"service": "teleport"}', "malformed"))
    for _ in range(2):  # bad limit: rejected by validation inside the stack
        script.append(
            ('{"service": "complete", "prefix": "da", "limit": 0}', "invalid")
        )
    script.append((StatsRequest().to_json(), "uncacheable"))
    assert len(script) == REQUESTS_PER_THREAD
    return script


class TestStress:
    def test_mixed_fire_no_5xx_and_exact_counters(self, backend, running_server):
        service = OctopusService(backend)
        statuses = []
        failures = []
        lock = threading.Lock()

        with running_server(service) as server:
            client = OctopusClient(server.url, timeout=WIRE_TIMEOUT)

            def hammer(thread_index: int) -> None:
                try:
                    for body, _kind in _thread_script(thread_index):
                        status, payload = client._request("POST", "/query", body)
                        with lock:
                            statuses.append((status, payload["ok"]))
                except Exception as error:  # noqa: BLE001 — collect, don't die
                    with lock:
                        failures.append(error)

            threads = [
                threading.Thread(target=hammer, args=(index,))
                for index in range(NUM_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WIRE_TIMEOUT * 4)
            assert not any(thread.is_alive() for thread in threads)
            client.close()
            final = server.shutdown_gracefully()

        assert not failures
        total = NUM_THREADS * REQUESTS_PER_THREAD
        assert len(statuses) == total

        # --- no 5xx, and status agrees with the envelope ---------------
        assert all(status < 500 for status, _ok in statuses)
        assert all((status == 200) == ok for status, ok in statuses)
        per_thread_4xx = 4  # 2 malformed + 2 invalid
        assert sum(status != 200 for status, _ok in statuses) == (
            NUM_THREADS * per_thread_4xx
        )

        # --- HTTP counters: every exchange in exactly one bucket -------
        assert final["http.requests"] == float(total)
        assert final["http.path.query"] == float(total)
        assert final.get("http.responses.5xx", 0.0) == 0.0
        assert final["http.responses.4xx"] == float(NUM_THREADS * per_thread_4xx)
        assert final["http.responses.2xx"] == float(
            total - NUM_THREADS * per_thread_4xx
        )

        # --- cache counters: hits + misses == cacheable lookups --------
        # Malformed requests never reach the service; invalid ones are
        # rejected by validation above the cache; stats is uncacheable.
        # Everything else does exactly one cache lookup.
        cacheable = NUM_THREADS * 10
        assert final["cache.hits"] + final["cache.misses"] == float(cacheable)
        # Distinct cacheable queries: 1 shared complete + 3 per-thread
        # completes + 1 shared radar — at most one miss each (threads may
        # race a popular key, so misses can exceed the distinct count by
        # at most the races; hits fill the rest exactly).
        distinct = 1 + 3 * NUM_THREADS + 1
        assert final["cache.misses"] >= float(distinct)
        assert final["cache.misses"] <= float(distinct + 2 * NUM_THREADS)

        # --- service metrics: request/error totals add up exactly ------
        assert final["service.complete.requests"] == float(
            NUM_THREADS * (5 + 3 + 2)  # valid completes + invalid-limit ones
        )
        assert final["service.complete.errors"] == float(NUM_THREADS * 2)
        assert final["service.radar.requests"] == float(NUM_THREADS * 2)
        assert final["service.radar.errors"] == 0.0
        assert final["service.stats.requests"] == float(NUM_THREADS)
        assert "service.teleport.requests" not in final  # never dispatched

    def test_inflight_deduplication_observable_over_the_wire(
        self, backend, running_server
    ):
        """Identical requests in flight together — one ``/batch`` — share
        one computation on the ``processes`` executor's replicas."""
        executor = ClusterCoordinator(
            OctopusService(backend), shards=2, fan_out=False
        )
        request = CompleteRequest(prefix="da", limit=5)
        with running_server(executor) as server:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                responses = client.execute_batch([request] * 5)
            computed = sum(
                entry["shard.requests"] for entry in executor.shard_stats()
            )
        assert all(response.ok for response in responses)
        payloads = [response.payload for response in responses]
        assert all(payload == payloads[0] for payload in payloads)
        # One computation on one replica; every duplicate shared it.
        assert computed == 1.0
        assert sum(response.cache_hit for response in responses) == 4
