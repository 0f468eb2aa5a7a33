#!/usr/bin/env python
"""Scenario 1 — keyword-based influential user discovery on ACMCite.

Reproduces the demo's observation that influence maximization returns
*diverse* influencers (complementary coverage) rather than the redundant
top of an individual-influence ranking: the same query is answered by
OCTOPUS and by an out-degree ranking, and both seed sets are judged by an
independent Monte-Carlo estimator under the query topic.

Run:  python examples/citation_influencers.py
"""

import numpy as np

from repro import CitationNetworkGenerator, Octopus, OctopusConfig
from repro.propagation.estimators import MonteCarloSpreadEstimator

QUERIES = ["data mining", "influence maximization", "query optimization"]
K = 5


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=600,
        citations_per_paper=4,
        papers_per_author=3,
        seed=17,
    ).generate()
    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=200,
            num_topic_samples=24,
            topic_sample_rr_sets=2000,
            seed=18,
        ),
    )

    for query in QUERIES:
        print(f"\n=== query: {query!r} (k={K}) ===")
        result = system.find_influencers(query, K)
        gamma = system.derive_gamma(query)
        print(f"topic distribution peak: "
              f"{system.topic_names[int(np.argmax(gamma))]} "
              f"({gamma.max():.2f})")
        print(f"latency: {result.elapsed_seconds * 1e3:.1f} ms  "
              f"(from sample: "
              f"{bool(result.statistics.get('answered_from_sample', 0))})")

        probabilities = dataset.true_edge_weights.edge_probabilities(gamma)
        judge = MonteCarloSpreadEstimator(
            dataset.graph, probabilities, num_samples=600, seed=1
        )

        octopus_spread = judge.spread(result.seeds)
        out_degree = dataset.graph.out_degree()
        degree_set = [
            int(node) for node in np.argsort(-out_degree, kind="stable")[:K]
        ]
        rows = [
            ("OCTOPUS (topic-aware IM)", result.seeds, octopus_spread),
            ("out-degree top-k", degree_set, judge.spread(degree_set)),
        ]
        print(f"{'method':<28s}{'spread':>8s}  seeds")
        for name, seeds, spread in rows:
            labels = ", ".join(dataset.graph.label_of(s) for s in seeds[:3])
            print(f"{name:<28s}{spread:>8.1f}  {labels}, …")

        # Diversity: how much of the joint spread is non-overlapping.
        singles = sum(judge.spread([s]) for s in result.seeds)
        print(f"sum of individual spreads {singles:.1f} vs joint "
              f"{octopus_spread:.1f} → overlap factor "
              f"{singles / max(octopus_spread, 1e-9):.2f}x")


if __name__ == "__main__":
    main()
