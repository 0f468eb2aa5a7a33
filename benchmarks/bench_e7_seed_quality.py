"""E7 — seed-set quality across algorithms (the Scenario-1 claim).

On a graph small enough for high-budget lazy greedy to stand in for the
(intractable) optimum, every algorithm's seed set is judged by one shared
high-precision Monte-Carlo estimator.

Expected shape: best-effort / topic-sample / RIS all land within a few
percent of greedy (consistent with their (1−1/e)-family guarantees), and
all are clearly above degree / PageRank / random rankings — influence
maximization finds complementary seeds, rankings find redundant ones.
"""

import pytest

from reference.estimators import RRSetSpreadEstimator
from reference.greedy import greedy_im
from reference.heuristics import (
    degree_discount_seeds,
    degree_seeds,
    pagerank_seeds,
    random_seeds,
)
from reference.mia import mia_im
from repro.im.ris import ris_im
from repro.propagation.estimators import MonteCarloSpreadEstimator

K = 5


@pytest.fixture(scope="module")
def probabilities(bench_weights, gamma_dm):
    return bench_weights.edge_probabilities(gamma_dm)


@pytest.fixture(scope="module")
def judge(bench_graph, probabilities):
    return MonteCarloSpreadEstimator(
        bench_graph, probabilities, num_samples=1000, seed=71
    )


@pytest.fixture(scope="module")
def greedy_reference(bench_graph, probabilities, judge):
    estimator = RRSetSpreadEstimator(
        bench_graph, probabilities, num_sets=8000, seed=72
    )
    result = greedy_im(bench_graph, probabilities, K, estimator=estimator)
    return judge.spread(result.seeds)


def _record(benchmark, judge, seeds, greedy_reference):
    spread = judge.spread(seeds)
    benchmark.extra_info["spread"] = spread
    benchmark.extra_info["fraction_of_greedy"] = spread / max(
        greedy_reference, 1e-9
    )


@pytest.mark.benchmark(group="e7-quality")
def test_ris(benchmark, bench_graph, probabilities, judge, greedy_reference):
    result = benchmark(
        ris_im, bench_graph, probabilities, K, num_sets=4000, seed=73
    )
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_mia(benchmark, bench_graph, probabilities, judge, greedy_reference):
    result = benchmark.pedantic(
        mia_im,
        (bench_graph, probabilities, K),
        kwargs=dict(threshold=0.01),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_best_effort(benchmark, best_effort_engine, gamma_dm, judge, greedy_reference):
    result = benchmark(best_effort_engine.query, gamma_dm, K)
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_degree(benchmark, bench_graph, judge, greedy_reference):
    result = benchmark(degree_seeds, bench_graph, K)
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_degree_discount(
    benchmark, bench_graph, probabilities, judge, greedy_reference
):
    result = benchmark(degree_discount_seeds, bench_graph, K, probabilities)
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_pagerank(benchmark, bench_graph, judge, greedy_reference):
    result = benchmark(pagerank_seeds, bench_graph, K)
    _record(benchmark, judge, result.seeds, greedy_reference)


@pytest.mark.benchmark(group="e7-quality")
def test_random(benchmark, bench_graph, judge, greedy_reference):
    result = benchmark(random_seeds, bench_graph, K, 74)
    _record(benchmark, judge, result.seeds, greedy_reference)
