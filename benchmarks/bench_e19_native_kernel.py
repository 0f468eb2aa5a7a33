"""E19 — native RR kernel: compiled chunk-batched sampling vs vectorized.

The PR 7 claim: moving the chunk loop into a compiled core — one C call
per chunk of roots, packed ``(nodes, offsets)`` written directly, GIL
released — beats even the frontier-batched ``vectorized`` kernel, whose
per-level NumPy dispatch overhead dominates once RR sets are deep; and the
compiled greedy cover-update removes the remaining ``bincount`` passes
from seed selection without moving a single tie-break.

Setup mirrors E15 (a ~50k-edge Erdős–Rényi digraph, activation slightly
supercritical so mean RR sets land in the hundreds of nodes) so the two
experiments' histories compare directly.  Both kernels are timed end to
end (``RRSetCollection.sample`` + ``greedy_max_cover``).  ``extra_info``
records ``cpu_count`` (the kernels are single-threaded), whether the run
used ``native-compiled`` or ``native-fallback`` (the acceptance bar — a
2× margin over ``vectorized`` — applies to compiled runs only), and the
measured ``speedup_vs_vectorized``.  The trajectory lives in
``BENCH_HISTORY.jsonl``.
"""

import os
import time

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_digraph
from repro.propagation.native import kernel_provenance
from repro.propagation.rrsets import RRSetCollection

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

NUM_NODES = 300 if _SMOKE else 5000
EDGE_PROBABILITY = 0.012 if _SMOKE else 0.002  # ≈ 50k edges at full size
ACTIVATION = 0.12  # slightly supercritical at mean degree ≈ 10
NUM_SETS = 60 if _SMOKE else 800
K = 10


@pytest.fixture(scope="module")
def kernel_graph():
    return erdos_renyi_digraph(NUM_NODES, EDGE_PROBABILITY, seed=1901)


@pytest.fixture(scope="module")
def activation_probabilities(kernel_graph):
    return np.full(kernel_graph.num_edges, ACTIVATION)


def _sample_and_cover(graph, probabilities, kernel):
    collection = RRSetCollection.sample(
        graph, probabilities, NUM_SETS, seed=1902, kernel=kernel
    )
    seeds, spread = collection.greedy_max_cover(K)
    return collection, seeds, spread


def _time_once(graph, probabilities, kernel):
    started = time.perf_counter()
    _sample_and_cover(graph, probabilities, kernel)
    return time.perf_counter() - started


def _record_shape(benchmark, graph, collection, kernel):
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["num_sets"] = NUM_SETS
    benchmark.extra_info["num_edges"] = int(graph.num_edges)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["native_kernel"] = kernel_provenance()
    benchmark.extra_info["mean_rr_size"] = round(
        float(np.diff(collection.packed.offsets).mean()), 1
    )


@pytest.mark.benchmark(group="e19-native-kernel")
def test_vectorized_kernel_sample_and_cover(
    benchmark, kernel_graph, activation_probabilities
):
    """Baseline: the frontier-batched NumPy kernel (the default)."""
    collection, seeds, _spread = benchmark.pedantic(
        _sample_and_cover,
        args=(kernel_graph, activation_probabilities, "vectorized"),
        rounds=2,
        iterations=1,
    )
    assert len(seeds) == K
    _record_shape(benchmark, kernel_graph, collection, "vectorized")


@pytest.mark.benchmark(group="e19-native-kernel")
def test_native_kernel_sample_and_cover(
    benchmark, kernel_graph, activation_probabilities
):
    """The chunk-batched native kernel, with the baseline re-timed
    in-process so the recorded speedup comes off the same machine state."""
    vectorized_seconds = _time_once(
        kernel_graph, activation_probabilities, "vectorized"
    )

    collection, seeds, _spread = benchmark.pedantic(
        _sample_and_cover,
        args=(kernel_graph, activation_probabilities, "native"),
        rounds=3,
        iterations=1,
    )
    assert len(seeds) == K
    _record_shape(benchmark, kernel_graph, collection, "native")
    benchmark.extra_info["vectorized_seconds"] = round(vectorized_seconds, 4)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["speedup_vs_vectorized"] = round(
            vectorized_seconds / benchmark.stats.stats.mean, 2
        )
