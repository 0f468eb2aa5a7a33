"""E1 — online keyword IM vs naive per-query IM (the core §I claim).

The naive solution "computes pp_{u,v} for each edge given the query and then
employs the traditional IM algorithms", which is "extremely expensive, and
cannot be used for answering online keyword queries".  This bench measures
one query ("data mining", k=5) answered four ways:

* naive CELF greedy with Monte-Carlo estimation (the classical baseline),
* naive RIS with guarantee-sized θ (TIM-style, reference [8]),
* the paper's best-effort framework (bounds + lazy exact evaluation; kept
  in ``reference/``),
* OCTOPUS's miss path: RIS on γ itself at the topic samples' budget,
* OCTOPUS topic-sample index (with that miss path as its fallback).

Expected shape: every OCTOPUS path is one to three orders of magnitude
faster than naive greedy, with the topic-sample path fastest when the query
lands near a sample; seed quality stays comparable (extra_info records the
spread of every method's seeds under one shared judge).
"""

import pytest

from reference.greedy import greedy_im
from repro.im.ris import recommended_num_sets, ris_im
from repro.propagation.estimators import MonteCarloSpreadEstimator

K = 5


@pytest.fixture(scope="module")
def judge(bench_graph, bench_weights, gamma_dm):
    probabilities = bench_weights.edge_probabilities(gamma_dm)
    return MonteCarloSpreadEstimator(
        bench_graph, probabilities, num_samples=400, seed=7
    )


@pytest.mark.benchmark(group="e1-keyword-im")
def test_naive_greedy_mc(benchmark, bench_graph, bench_weights, gamma_dm, judge):
    def run():
        # Same Monte-Carlo budget per evaluation as the best-effort oracle,
        # so the comparison isolates the pruning, not the estimator budget.
        probabilities = bench_weights.edge_probabilities(gamma_dm)
        return greedy_im(
            bench_graph, probabilities, K, num_samples=60, seed=1
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
    benchmark.extra_info["evaluations"] = result.evaluations


@pytest.mark.benchmark(group="e1-keyword-im")
def test_naive_ris_full_theta(
    benchmark, bench_graph, bench_weights, gamma_dm, judge
):
    num_sets = recommended_num_sets(
        bench_graph.num_nodes, K, epsilon=0.3, max_sets=60_000
    )

    def run():
        probabilities = bench_weights.edge_probabilities(gamma_dm)
        return ris_im(
            bench_graph, probabilities, K, num_sets=num_sets, seed=2
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
    benchmark.extra_info["num_rr_sets"] = num_sets


@pytest.mark.benchmark(group="e1-keyword-im")
def test_octopus_best_effort(benchmark, best_effort_engine, gamma_dm, judge):
    result = benchmark(best_effort_engine.query, gamma_dm, K)
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
    benchmark.extra_info["exact_evaluations"] = result.statistics[
        "exact_evaluations"
    ]


@pytest.mark.benchmark(group="e1-keyword-im")
def test_octopus_ris_miss(benchmark, bench_system, gamma_dm, judge):
    result = benchmark(bench_system.answer_miss, gamma_dm, K)
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
    benchmark.extra_info["reported_spread"] = result.spread
    benchmark.extra_info["num_rr_sets"] = result.statistics["num_rr_sets"]


@pytest.mark.benchmark(group="e1-keyword-im")
def test_octopus_topic_samples(benchmark, bench_system, gamma_dm, judge):
    index = bench_system.topic_sample_index

    def run():
        return index.query(
            gamma_dm,
            K,
            fallback=bench_system.answer_miss,
            gap_tolerance=bench_system.config.gap_tolerance,
        )

    result = benchmark(run)
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
    benchmark.extra_info["answered_from_sample"] = result.statistics[
        "answered_from_sample"
    ]


@pytest.mark.benchmark(group="e1-keyword-im-k")
@pytest.mark.parametrize("k", [5, 10, 20])
def test_octopus_latency_vs_k(benchmark, best_effort_engine, gamma_dm, k):
    result = benchmark(best_effort_engine.query, gamma_dm, k)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["exact_evaluations"] = result.statistics[
        "exact_evaluations"
    ]


@pytest.mark.benchmark(group="e1-keyword-im-k")
@pytest.mark.parametrize("k", [5, 10, 20])
def test_ris_miss_latency_vs_k(benchmark, bench_system, gamma_dm, judge, k):
    result = benchmark(bench_system.answer_miss, gamma_dm, k)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["spread"] = judge.spread(result.seeds)
