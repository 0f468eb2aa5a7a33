"""E20 — the zero-copy data plane: shm descriptors vs pickled payloads.

The PR 8 claim: packed RR-set chunks and greedy-cover vectors are bulk
int64 payloads, and pickling them across worker/shard pipes pays twice —
serialize in the child, deserialize in the parent — before assembly even
starts.  Writing them into a shared-memory arena and shipping a
(segment, offset, lengths) descriptor eliminates that entirely: the bytes
crossing the pipe shrink from the full payload to ~100 bytes per chunk,
and parent-side assembly concatenates zero-copy views instead of
unpickled copies.

Three measurements, each over both transports (``REPRO_SHM`` toggles the
byte-identical pickle twin):

* **payload accounting + assembly** — serialized bytes per batch under
  each transport, and the parent-side assembly cost (unpickle + concat
  vs view + concat), isolated from sampling;
* **pool end-to-end** — ``ProcessPoolBackend.sample_rr_sets_packed`` at
  1/2/4 workers;
* **cluster end-to-end** — one distributed targeted query at 1/2/4
  shards (smoke trims to 1/2).

Answers are transport-independent by construction (the golden suites pin
that); E20 records what the indirection costs and saves.  The trajectory
lives in ``BENCH_HISTORY.jsonl``.
"""

import contextlib
import os
import pickle

import numpy as np
import pytest

from repro.backend import ProcessPoolBackend, SerialBackend
from repro.backend.shm import ShmArena, ShmSession, shm_enabled
from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.graph.generators import erdos_renyi_digraph
from repro.propagation.packed import PackedRRSets
from repro.service import OctopusService, TargetedInfluencersRequest

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

pytestmark = pytest.mark.skipif(
    not shm_enabled() and os.environ.get("REPRO_SHM", "") == "",
    reason="platform has no fork start method",
)

NUM_NODES = 300 if _SMOKE else 3000
EDGE_PROBABILITY = 0.012 if _SMOKE else 0.0035
ACTIVATION = 0.12  # slightly supercritical: RR sets in the hundreds
NUM_SETS = 100 if _SMOKE else 3000
WORKER_COUNTS = [1, 2] if _SMOKE else [1, 2, 4]
SHARD_COUNTS = [1, 2] if _SMOKE else [1, 2, 4]
TARGETED_NUM_SETS = 150 if _SMOKE else 1500


@contextlib.contextmanager
def _transport(name):
    """Pin the transport for the duration (restores the prior setting)."""
    prior = os.environ.get("REPRO_SHM")
    if name == "pickle":
        os.environ["REPRO_SHM"] = "0"
    else:
        os.environ.pop("REPRO_SHM", None)
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_SHM", None)
        else:
            os.environ["REPRO_SHM"] = prior


@pytest.fixture(scope="module")
def transport_graph():
    return erdos_renyi_digraph(NUM_NODES, EDGE_PROBABILITY, seed=2001)


@pytest.fixture(scope="module")
def transport_probabilities(transport_graph):
    return np.full(transport_graph.num_edges, ACTIVATION)


@pytest.fixture(scope="module")
def chunk_payloads(transport_graph, transport_probabilities):
    """The batch's chunk payloads, sampled once serially: the exact arrays
    either transport must move (chunk plans are backend-independent)."""
    packed = SerialBackend().sample_rr_sets_packed(
        transport_graph, transport_probabilities, NUM_SETS, seed=2002
    )
    chunks = []
    for low in range(0, packed.num_sets, 256):
        high = min(low + 256, packed.num_sets)
        base, top = packed.offsets[low], packed.offsets[high]
        chunks.append(
            (
                packed.nodes[base:top].copy(),
                (packed.offsets[low : high + 1] - base).copy(),
            )
        )
    return packed, chunks


@pytest.mark.benchmark(group="e20-shm-assembly")
def test_pickle_roundtrip_assembly(benchmark, transport_graph, chunk_payloads):
    """The historical parent-side cost: unpickle every chunk, then
    concatenate — plus the serialized bytes the pipe must carry."""
    packed, chunks = chunk_payloads
    wire = [pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL) for chunk in chunks]

    def assemble():
        return PackedRRSets.from_chunks(
            transport_graph.num_nodes, [pickle.loads(blob) for blob in wire]
        )

    rebuilt = benchmark.pedantic(assemble, rounds=5, iterations=1)
    assert rebuilt.num_sets == packed.num_sets
    benchmark.extra_info["transport"] = "pickle"
    benchmark.extra_info["num_chunks"] = len(chunks)
    benchmark.extra_info["payload_bytes"] = int(packed.nodes.nbytes + packed.offsets.nbytes)
    benchmark.extra_info["bytes_over_pipe"] = sum(len(blob) for blob in wire)


@pytest.mark.benchmark(group="e20-shm-assembly")
def test_shm_view_assembly(benchmark, transport_graph, chunk_payloads):
    """The data-plane cost: resolve descriptors to zero-copy views, then
    concatenate — only the descriptors cross the pipe."""
    packed, chunks = chunk_payloads
    session = ShmSession()
    try:
        arena = ShmArena(session, "bench")
        reader = ShmArena.reader(session)
        refs = [arena.write_arrays(chunk) for chunk in chunks]

        def assemble():
            return PackedRRSets.from_chunks(
                transport_graph.num_nodes,
                [tuple(reader.read(ref)) for ref in refs],
            )

        rebuilt = benchmark.pedantic(assemble, rounds=5, iterations=1)
        assert rebuilt.num_sets == packed.num_sets
        benchmark.extra_info["transport"] = "shm"
        benchmark.extra_info["num_chunks"] = len(chunks)
        benchmark.extra_info["payload_bytes"] = int(
            packed.nodes.nbytes + packed.offsets.nbytes
        )
        benchmark.extra_info["bytes_over_pipe"] = sum(
            len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
            for ref in refs
        )
    finally:
        session.close()


@pytest.mark.benchmark(group="e20-shm-pool")
@pytest.mark.parametrize("transport", ["shm", "pickle"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pool_sampling_end_to_end(
    benchmark, transport_graph, transport_probabilities, transport, workers
):
    """Fork, sample, transport, assemble: the pooled sampling path."""
    with _transport(transport):
        with ProcessPoolBackend(workers) as backend:

            def run():
                return backend.sample_rr_sets_packed(
                    transport_graph,
                    transport_probabilities,
                    NUM_SETS,
                    seed=2002,
                )

            packed = benchmark.pedantic(run, rounds=3, iterations=1)
            assert backend.payload_transport == transport
    assert packed.num_sets == NUM_SETS
    benchmark.extra_info["transport"] = transport
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["num_sets"] = NUM_SETS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["payload_bytes"] = int(
        packed.nodes.nbytes + packed.offsets.nbytes
    )


@pytest.fixture(scope="module")
def cluster_system(bench_dataset):
    """Chunked sampling semantics (what the distributed path reproduces)."""
    config = OctopusConfig(
        num_sketches=30 if _SMOKE else 200,
        num_topic_samples=4 if _SMOKE else 16,
        topic_sample_rr_sets=200 if _SMOKE else 1500,
        oracle_samples=15 if _SMOKE else 60,
        execution_backend="threads",
        workers=1,
        seed=1002,
    )
    return Octopus.from_dataset(bench_dataset, config=config)


@pytest.mark.benchmark(group="e20-shm-cluster")
@pytest.mark.parametrize("transport", ["shm", "pickle"])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_cluster_targeted_end_to_end(
    benchmark, cluster_system, transport, shards
):
    """One distributed targeted query: shard fan-out, gather, cover."""
    request = TargetedInfluencersRequest(
        keywords="data mining", k=5, num_sets=TARGETED_NUM_SETS
    )
    with _transport(transport):
        cluster = ClusterCoordinator(
            OctopusService(cluster_system), shards=shards
        )
    try:
        assert cluster.stats()["executor.payload_transport"] == transport

        def run():
            cluster.cache.clear()
            return cluster.execute(request)

        response = benchmark.pedantic(run, rounds=3, iterations=1)
        assert response.ok
    finally:
        cluster.close()
    benchmark.extra_info["transport"] = transport
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["num_sets"] = TARGETED_NUM_SETS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
