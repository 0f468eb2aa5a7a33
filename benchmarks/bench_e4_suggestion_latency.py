"""E4 — keyword suggestion: influencer index vs naive sampling (§II-D).

The naive approach re-estimates the target's spread from scratch (forward
Monte-Carlo) for every candidate keyword set; OCTOPUS evaluates all
candidates against the precomputed influencer-index sketches (coupled
worlds, vectorised liveness).

Expected shape: the index-based suggester answers in milliseconds and its
latency is flat in graph size (only sketches containing the target are
touched), while the naive path scales with candidates × samples × cascade
size.  Greedy quality is recorded against exhaustive search.
"""

import pytest

from repro.propagation.ic import IndependentCascade

K = 3


@pytest.fixture(scope="module")
def target(bench_system):
    return bench_system.find_influencers("data mining", 1).seeds[0]


@pytest.mark.benchmark(group="e4-suggestion")
def test_octopus_index_suggestion(benchmark, bench_system, target):
    def run():
        return bench_system.suggest_keywords(target, k=K)

    result = benchmark(run)
    benchmark.extra_info["spread"] = result.spread
    benchmark.extra_info["keywords"] = ",".join(result.keywords)
    benchmark.extra_info["set_evaluations"] = result.statistics[
        "set_evaluations"
    ]


@pytest.mark.benchmark(group="e4-suggestion")
def test_naive_mc_suggestion(
    benchmark, bench_system, bench_graph, bench_weights, target
):
    """Greedy over the same candidate pool with per-set MC estimation."""
    model = bench_system.topic_model
    candidates = bench_system.suggester.candidates_for(target)[:12]

    def run():
        selected = []
        current = 0.0
        for _round in range(K):
            best_word, best_gain = None, 0.0
            for word in candidates:
                if word in selected:
                    continue
                gamma = model.keyword_topic_posterior(selected + [word])
                probabilities = bench_weights.edge_probabilities(gamma)
                cascade = IndependentCascade(bench_graph, probabilities)
                spread = cascade.estimate_spread([target], 60, seed=3)
                if spread - current > best_gain:
                    best_word, best_gain = word, spread - current
            if best_word is None:
                break
            selected.append(best_word)
            current += best_gain
        return selected, current

    selected, spread = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["spread"] = spread
    benchmark.extra_info["keywords"] = ",".join(
        model.vocabulary.word_of(w) for w in selected
    )


@pytest.mark.benchmark(group="e4-greedy-vs-exact")
def test_exact_enumeration(benchmark, bench_system, target):
    def run():
        return bench_system.suggest_keywords(target, k=K, method="exact")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    greedy = bench_system.suggest_keywords(target, k=K)
    benchmark.extra_info["exact_spread"] = result.spread
    benchmark.extra_info["greedy_spread"] = greedy.spread
    benchmark.extra_info["greedy_over_exact"] = greedy.spread / max(
        result.spread, 1e-9
    )


@pytest.mark.benchmark(group="e4-suggestion-k")
@pytest.mark.parametrize("k", [1, 3, 5])
def test_suggestion_latency_vs_k(benchmark, bench_system, target, k):
    def run():
        return bench_system.suggest_keywords(target, k=k)

    result = benchmark(run)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["keywords_selected"] = len(result.keywords)
