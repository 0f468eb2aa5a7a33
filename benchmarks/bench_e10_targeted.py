"""E10 (extension) — targeted keyword IM (reference [7]).

Compares plain keyword IM against the audience-targeted variant on the
same query: the targeted objective should shift seeds toward the audience
and win clearly on audience-weighted spread, at a latency in the same
online range.

Expected shape: targeted seeds ≥ untargeted seeds on the weighted
objective (often by a wide margin when the audience is a small topical
subpopulation); RR-sampling latency comparable to plain RIS.
"""

import pytest

from repro.core.targeted import TargetedKeywordIM
from repro.im.ris import ris_im

K = 5


@pytest.fixture(scope="module")
def targeted_setup(bench_system, bench_weights, gamma_dm):
    engine = TargetedKeywordIM(
        bench_weights, bench_system.inverted_index, num_sets=1500, seed=101
    )
    word_ids = bench_system.topic_model.vocabulary.ids_of(["data mining"])
    audience = engine.audience_for_keywords(word_ids)
    return engine, audience


@pytest.mark.benchmark(group="e10-targeted")
def test_targeted_query(benchmark, targeted_setup, gamma_dm):
    engine, audience = targeted_setup
    result = benchmark(engine.query, gamma_dm, K, audience)
    benchmark.extra_info["weighted_spread"] = result.spread
    benchmark.extra_info["audience_users"] = result.statistics[
        "audience_users"
    ]


@pytest.mark.benchmark(group="e10-targeted")
def test_untargeted_baseline_on_weighted_objective(
    benchmark, targeted_setup, bench_graph, bench_weights, gamma_dm
):
    engine, audience = targeted_setup
    probabilities = bench_weights.edge_probabilities(gamma_dm)

    result = benchmark(
        ris_im, bench_graph, probabilities, K, num_sets=1500, seed=102
    )
    weighted = engine.estimate_weighted_spread(
        result.seeds, gamma_dm, audience, num_samples=400, seed=103
    )
    targeted_result = engine.query(gamma_dm, K, audience)
    targeted_weighted = engine.estimate_weighted_spread(
        targeted_result.seeds, gamma_dm, audience, num_samples=400, seed=103
    )
    benchmark.extra_info["untargeted_weighted_spread"] = weighted
    benchmark.extra_info["targeted_weighted_spread"] = targeted_weighted
    benchmark.extra_info["targeted_advantage"] = targeted_weighted / max(
        weighted, 1e-9
    )
