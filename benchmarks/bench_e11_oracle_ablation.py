"""E11 (ablation) — the best-effort framework's exact-evaluation oracle.

DESIGN.md §5 marks the oracle as a configuration choice: Monte-Carlo
forward simulation on fixed per-query live-edge worlds (each evaluation
explores only the candidate's marginal reach) vs a fixed RR-set
collection per query (pays an upfront sampling cost).  Both are
deterministic within the query, so CELF compares noise-free gains with
either.

Expected shape: the RIS oracle front-loads cost (collection build) and
then evaluates seeds in O(|collection|) set intersections, so it wins when
the bound framework requests many evaluations (larger k); the MC oracle
pays per evaluation only for the marginal cascade and wins at small k.
"""

import pytest

from repro.core.besteffort import BestEffortKeywordIM


@pytest.mark.benchmark(group="e11-oracle")
@pytest.mark.parametrize("oracle", ["mc", "ris"])
@pytest.mark.parametrize("k", [5, 10])
def test_oracle_choice(
    benchmark, bench_weights, bound_estimators, gamma_dm, oracle, k
):
    engine = BestEffortKeywordIM(
        bench_weights,
        bound_estimators["precomputation"],
        oracle=oracle,
        num_samples=60,
        num_sets=2000,
        seed=111,
    )
    result = benchmark.pedantic(
        engine.query, (gamma_dm, k), rounds=2, iterations=1
    )
    benchmark.extra_info["oracle"] = oracle
    benchmark.extra_info["k"] = k
    benchmark.extra_info["exact_evaluations"] = result.statistics[
        "exact_evaluations"
    ]
    benchmark.extra_info["spread"] = result.spread
