"""E15 — the vectorized RR sampling kernel and packed payloads.

The PR 3 design: RR sampling is a frontier-batched NumPy kernel (gather the
whole frontier's in-CSR slices per BFS level, one coin array per level),
and the packed flat-array representation makes greedy max-cover a
bincount/argmax loop and chunk results two flat buffers.  The
node-at-a-time loop it replaced (3.8–4.9× slower in this experiment's
history) was retired in PR 14; E19 compares the two remaining kernels.

Setup: a ~50k-edge Erdős–Rényi digraph with uniform activation probability
chosen slightly supercritical (mean RR set in the hundreds of nodes — the
regime where query-time IM budgets actually land), timed end to end
(``RRSetCollection.sample`` + ``greedy_max_cover``).  ``extra_info``
records ``cpu_count`` (single-core runners — the kernel is single-threaded
anyway) and the pickle payload bytes of the packed vs set-based batch
representations.  The trajectory lives in ``BENCH_HISTORY.jsonl``.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_digraph
from repro.propagation.rrsets import RRSetCollection

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

NUM_NODES = 300 if _SMOKE else 5000
EDGE_PROBABILITY = 0.012 if _SMOKE else 0.002  # ≈ 50k edges at full size
ACTIVATION = 0.12  # slightly supercritical at mean degree ≈ 10
NUM_SETS = 60 if _SMOKE else 800
K = 10


@pytest.fixture(scope="module")
def kernel_graph():
    return erdos_renyi_digraph(NUM_NODES, EDGE_PROBABILITY, seed=1501)


@pytest.fixture(scope="module")
def activation_probabilities(kernel_graph):
    return np.full(kernel_graph.num_edges, ACTIVATION)


def _sample_and_cover(graph, probabilities, kernel):
    collection = RRSetCollection.sample(
        graph, probabilities, NUM_SETS, seed=1502, kernel=kernel
    )
    seeds, spread = collection.greedy_max_cover(K)
    return collection, seeds, spread


def _record_shape(benchmark, graph, collection, kernel):
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["num_sets"] = NUM_SETS
    benchmark.extra_info["num_edges"] = int(graph.num_edges)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["mean_rr_size"] = round(
        float(np.diff(collection.packed.offsets).mean()), 1
    )


@pytest.mark.benchmark(group="e15-kernels")
def test_vectorized_kernel_sample_and_cover(
    benchmark, kernel_graph, activation_probabilities
):
    """The frontier-batched kernel (the default)."""
    collection, seeds, _spread = benchmark.pedantic(
        _sample_and_cover,
        args=(kernel_graph, activation_probabilities, "vectorized"),
        rounds=2,
        iterations=1,
    )
    assert len(seeds) == K
    _record_shape(benchmark, kernel_graph, collection, "vectorized")


@pytest.mark.benchmark(group="e15-kernels")
def test_packed_payload_pickle(
    benchmark, kernel_graph, activation_probabilities
):
    """What a chunk result costs to ship: packed buffers vs Python sets."""
    collection = RRSetCollection.sample(
        kernel_graph, activation_probabilities, NUM_SETS, seed=1502
    )
    packed_payload = collection.packed.chunk_payload()
    set_payload = collection.rr_sets

    benchmark.pedantic(
        lambda: pickle.dumps(packed_payload), rounds=3, iterations=1
    )
    packed_bytes = len(pickle.dumps(packed_payload))
    set_bytes = len(pickle.dumps(set_payload))
    set_pickle_started = time.perf_counter()
    pickle.dumps(set_payload)
    set_pickle_seconds = time.perf_counter() - set_pickle_started
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["num_sets"] = NUM_SETS
    benchmark.extra_info["payload_bytes_packed"] = packed_bytes
    benchmark.extra_info["payload_bytes_sets"] = set_bytes
    benchmark.extra_info["payload_bytes_ratio"] = round(
        set_bytes / max(packed_bytes, 1), 3
    )
    benchmark.extra_info["set_pickle_seconds"] = round(set_pickle_seconds, 5)
