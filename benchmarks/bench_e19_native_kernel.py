"""E19 — the RR kernel's compiled core vs its NumPy path.

The one RR kernel runs on an optional compiled core (one C call per chunk
of roots, packed ``(nodes, offsets)`` written directly, GIL released) and
otherwise on the level-synchronous NumPy sampler; both draw the same
counter-keyed coins and write the same canonical member order, so the
bytes are identical and only the time differs.  The compiled greedy
cover-update likewise removes the ``bincount`` passes from seed selection
without moving a single tie-break.  Until the re-key this experiment
compared the ``native`` kernel with the ``vectorized`` one; their last run
is the history row of commit ``8609103``.

Setup mirrors E15 (a ~50k-edge Erdős–Rényi digraph, activation slightly
supercritical so mean RR sets land in the hundreds of nodes) so the two
experiments' histories compare directly.  Both paths are timed end to end
(``RRSetCollection.sample`` + ``greedy_max_cover``).  ``extra_info``
records ``cpu_count`` (the kernel is single-threaded), which path ran, the
measured ``speedup_vs_numpy`` and whether the two paths' packed bytes and
seeds matched.  The compiled benchmark skips where the extension did not
build.  The trajectory lives in ``BENCH_HISTORY.jsonl``.
"""

import os
import time

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_digraph
from repro.propagation import native
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


def _sample_and_cover(graph, probabilities):
    collection = RRSetCollection.sample(graph, probabilities, NUM_SETS, seed=1902)
    seeds, spread = collection.greedy_max_cover(K)
    return collection, seeds, spread


def _record_shape(benchmark, graph, collection):
    benchmark.extra_info["path"] = native.kernel_provenance()
    benchmark.extra_info["num_sets"] = NUM_SETS
    benchmark.extra_info["num_edges"] = int(graph.num_edges)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["mean_rr_size"] = round(
        float(np.diff(collection.packed.offsets).mean()), 1
    )


@pytest.mark.benchmark(group="e19-native-kernel")
def test_numpy_path_sample_and_cover(
    benchmark, kernel_graph, activation_probabilities, monkeypatch
):
    """Baseline: the level-synchronous NumPy sampler."""
    monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
    collection, seeds, _spread = benchmark.pedantic(
        _sample_and_cover,
        args=(kernel_graph, activation_probabilities),
        rounds=2,
        iterations=1,
    )
    assert len(seeds) == K
    _record_shape(benchmark, kernel_graph, collection)


@pytest.mark.skipif(not native.HAVE_COMPILED, reason="extension not built")
@pytest.mark.benchmark(group="e19-native-kernel")
def test_compiled_core_sample_and_cover(
    benchmark, kernel_graph, activation_probabilities, monkeypatch
):
    """The compiled core, with the NumPy path re-timed in-process so the
    recorded speedup comes off the same machine state."""
    monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
    started = time.perf_counter()
    numpy_collection, numpy_seeds, _ = _sample_and_cover(
        kernel_graph, activation_probabilities
    )
    numpy_seconds = time.perf_counter() - started

    monkeypatch.setattr(native, "_FORCED_FALLBACK", False)
    collection, seeds, _spread = benchmark.pedantic(
        _sample_and_cover,
        args=(kernel_graph, activation_probabilities),
        rounds=3,
        iterations=1,
    )
    assert len(seeds) == K
    _record_shape(benchmark, kernel_graph, collection)
    identical = seeds == numpy_seeds and np.array_equal(
        collection.packed.nodes, numpy_collection.packed.nodes
    )
    assert identical
    benchmark.extra_info["bytes_identical"] = identical
    benchmark.extra_info["numpy_seconds"] = round(numpy_seconds, 4)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["speedup_vs_numpy"] = round(
            numpy_seconds / benchmark.stats.stats.mean, 2
        )
