"""E2 — the upper-bound estimator behind the best-effort framework (§II-C).

Measures (a) bound evaluation latency for a query over all nodes, with the
bound tightness (mean bound, lower = tighter given it is sound) and index
size, and (b) the pruning power when driving the best-effort loop (exact
oracle evaluations needed out of all candidates).

Expected shape: precomputation reads one precomputed grid row per query,
so (a) is an O(n) copy, and its bounds are tight enough for sharp queries
that (b) evaluates a small prefix of the user ranking.
"""

import numpy as np
import pytest

from repro.core.besteffort import BestEffortKeywordIM

K = 5


@pytest.mark.benchmark(group="e2-bound-latency")
def test_bounds_all_nodes_latency(benchmark, bound_estimator, gamma_dm):
    bounds = benchmark(bound_estimator.bounds, gamma_dm)
    benchmark.extra_info["mean_bound"] = float(np.mean(bounds))
    benchmark.extra_info["index_size_floats"] = bound_estimator.index_size


@pytest.mark.benchmark(group="e2-pruning-power")
def test_best_effort_pruning_power(
    benchmark, bench_weights, bound_estimator, gamma_dm
):
    engine = BestEffortKeywordIM(
        bench_weights, bound_estimator, num_samples=60, seed=11
    )
    result = benchmark.pedantic(engine.query, (gamma_dm, K), rounds=2, iterations=1)
    benchmark.extra_info["exact_evaluations"] = result.statistics[
        "exact_evaluations"
    ]
    benchmark.extra_info["candidates"] = result.statistics[
        "candidates_considered"
    ]
    benchmark.extra_info["spread"] = result.spread
