"""E17 — sharded serving: queries/sec and per-query latency vs shard count.

The cluster question PR 5 opens: what does shard fan-out cost, and what
does it buy?  Three measurements per shard count (1 / 2 / 4; smoke runs
trim to 1 / 2):

* **distributed targeted latency** — the fan-out pipeline (one
  chunk-range ``SampleShard`` per shard, then the ordinary greedy cover
  on the coordinator), the cluster's heavy path, against the single-process floor on the same
  chunked configuration (byte-identical answers — E17 measures pure
  scheduling cost);
* **routed throughput** — a stream of cheap distinct queries round-robined
  over shard pipes, the protocol-overhead measurement.

On an N-core host the distributed path approaches min(shards, N)× the
floor for sampling-bound queries; ``extra_info`` records ``cpu_count``
with every ratio so the ``BENCH_HISTORY.jsonl`` trajectory stays
interpretable on single-core runners (which can only show overhead, not
speedup).  Caches are cleared inside every timed round: E17 measures
compute paths, not the coordinator's LRU.
"""

import os
import time

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.service import (
    CompleteRequest,
    OctopusService,
    RadarRequest,
    TargetedInfluencersRequest,
)

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SHARD_COUNTS = [1, 2] if _SMOKE else [1, 2, 4]
TARGETED_NUM_SETS = 300 if _SMOKE else 1500

TARGETED_REQUEST = TargetedInfluencersRequest(
    keywords="data mining", k=5, num_sets=TARGETED_NUM_SETS
)

#: Distinct cheap requests: every slot has its own cache key, so the
#: routed-throughput stream really crosses a shard pipe per slot.
ROUTED_REQUESTS = [
    CompleteRequest(prefix=prefix, limit=5)
    for prefix in ("da", "cl", "fe", "sa", "ou", "de")
] + [RadarRequest("data mining"), RadarRequest("clustering")]


@pytest.fixture(scope="module")
def chunked_system(bench_dataset):
    """A bench-sized system on chunked sampling semantics (the semantics
    the cluster fan-out reproduces byte-for-byte)."""
    config = OctopusConfig(
        num_sketches=30 if _SMOKE else 200,
        num_topic_samples=4 if _SMOKE else 16,
        topic_sample_rr_sets=200 if _SMOKE else 1500,
        execution_backend="threads",
        workers=1,
        seed=1002,
    )
    return Octopus.from_dataset(bench_dataset, config=config)


@pytest.fixture(params=SHARD_COUNTS, scope="module")
def cluster(request, chunked_system):
    """One coordinator per shard count (shards fork the shared system)."""
    coordinator = ClusterCoordinator(
        OctopusService(chunked_system), shards=request.param
    )
    yield coordinator
    coordinator.close()


@pytest.mark.benchmark(group="e17-cluster")
def test_single_process_targeted_floor(benchmark, chunked_system):
    """The floor the fan-out competes against: same config, no shards."""
    service = OctopusService(chunked_system)

    def run():
        service.cache.clear()
        return service.execute(TARGETED_REQUEST)

    response = benchmark.pedantic(run, rounds=3, iterations=1)
    assert response.ok
    benchmark.extra_info["num_sets"] = TARGETED_NUM_SETS
    benchmark.extra_info["cpu_count"] = os.cpu_count()


@pytest.mark.benchmark(group="e17-cluster")
def test_distributed_targeted_latency(benchmark, cluster, chunked_system):
    """The fan-out pipeline per shard count, with the floor ratio."""
    floor_service = OctopusService(chunked_system)
    floor_rounds = 2
    started = time.perf_counter()
    for _ in range(floor_rounds):
        floor_service.cache.clear()
        floor = floor_service.execute(TARGETED_REQUEST)
    floor_seconds = (time.perf_counter() - started) / floor_rounds
    assert floor.ok

    def run():
        cluster.cache.clear()
        return cluster.execute(TARGETED_REQUEST)

    response = benchmark.pedantic(run, rounds=3, iterations=1)
    assert response.ok
    benchmark.extra_info["shards"] = cluster.shards
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["floor_seconds"] = round(floor_seconds, 6)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["fanout_overhead_ratio"] = round(
            benchmark.stats.stats.mean / max(floor_seconds, 1e-9), 3
        )


@pytest.mark.benchmark(group="e17-cluster")
def test_routed_throughput(benchmark, cluster):
    """Queries/sec of a cheap distinct-request stream over shard pipes."""

    def run():
        cluster.cache.clear()
        return cluster.execute_batch(ROUTED_REQUESTS)

    responses = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(response.ok for response in responses)
    benchmark.extra_info["shards"] = cluster.shards
    benchmark.extra_info["queries"] = len(ROUTED_REQUESTS)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    if benchmark.stats is not None:
        benchmark.extra_info["queries_per_second"] = round(
            len(ROUTED_REQUESTS) / max(benchmark.stats.stats.mean, 1e-9), 1
        )
