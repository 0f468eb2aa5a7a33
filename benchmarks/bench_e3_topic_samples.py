"""E3 — the topic-sample index: sample count vs latency / hit rate.

Sweeps the number of offline-sampled topic distributions and measures, for
a pool of realistic keyword queries, the direct-answer (cache-hit) rate and
the mean L1 distance to the nearest sample, plus the per-query latency
through the index.

Expected shape: more samples → closer nearest sample → higher direct-answer
rate and lower latency (a direct answer skips the miss path, RIS on the
query's own γ), at a linearly growing offline precomputation cost (also
measured).
"""

import numpy as np
import pytest

from repro.core.topic_samples import TopicSampleIndex

QUERY_KEYWORDS = [
    "data mining",
    "clustering",
    "machine learning",
    "query optimization",
    "social network",
    "consensus",
    "web search",
    "visualization",
]


@pytest.fixture(scope="module")
def query_gammas(bench_system):
    return [bench_system.derive_gamma(keyword) for keyword in QUERY_KEYWORDS]


@pytest.mark.benchmark(group="e3-build")
@pytest.mark.parametrize("num_samples", [4, 16, 64])
def test_index_build_cost(benchmark, bench_weights, num_samples):
    index = benchmark.pedantic(
        TopicSampleIndex,
        kwargs=dict(
            edge_weights=bench_weights,
            num_samples=num_samples,
            max_k=10,
            num_rr_sets=800,
            seed=21,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["num_samples"] = num_samples
    benchmark.extra_info["stored_seed_sets"] = sum(
        len(sample.seeds_by_k) for sample in index.samples
    )


@pytest.mark.benchmark(group="e3-query")
@pytest.mark.parametrize("num_samples", [4, 16, 64])
def test_query_through_index(
    benchmark, bench_weights, bench_system, query_gammas, num_samples
):
    index = TopicSampleIndex(
        bench_weights,
        num_samples=num_samples,
        max_k=10,
        num_rr_sets=800,
        seed=21,
    )
    def run_all():
        hits = 0
        distances = []
        for gamma in query_gammas:
            result = index.query(
                gamma, 5, fallback=bench_system.answer_miss, gap_tolerance=0.3
            )
            hits += int(result.statistics.get("answered_from_sample", 0))
            distances.append(result.statistics.get("l1_distance", 0.0))
        return hits, float(np.mean(distances))

    hits, mean_distance = benchmark(run_all)
    benchmark.extra_info["num_samples"] = num_samples
    benchmark.extra_info["direct_answer_rate"] = hits / len(query_gammas)
    benchmark.extra_info["mean_l1_to_nearest"] = mean_distance
