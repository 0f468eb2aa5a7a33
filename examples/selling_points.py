#!/usr/bin/env python
"""Scenario 2 — personalized influential keywords ("selling points").

For several researchers, suggests the k-sized keyword set maximising their
topic-aware influence, shows the per-keyword singleton spreads the pruning
stage computed, renders the radar interpretation, and (for a small candidate
pool) cross-checks greedy against exhaustive search.

Run:  python examples/selling_points.py
"""

from repro import CitationNetworkGenerator, Octopus, OctopusConfig
from repro.viz import render_radar


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=400,
        citations_per_paper=4,
        papers_per_author=4,
        seed=23,
    ).generate()
    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=300,
            num_topic_samples=8,
            topic_sample_rr_sets=800,
            suggestion_candidate_limit=12,
            seed=24,
        ),
    )

    # Analyse the top influencers of two different areas.
    targets = []
    for query in ("data mining", "social network"):
        targets.extend(system.find_influencers(query, 2).seeds)

    for target in dict.fromkeys(targets):
        label = system.graph.label_of(target)
        print(f"\n=== selling points of {label} (user {target}) ===")

        greedy = system.suggest_keywords(target, k=3)
        print(f"greedy suggestion: {greedy.keywords} "
              f"(spread {greedy.spread:.1f}, "
              f"{greedy.elapsed_seconds * 1e3:.1f} ms, "
              f"{greedy.statistics['set_evaluations']:.0f} set evaluations)")

        exact = system.suggest_keywords(target, k=3, method="exact")
        print(f"exact suggestion : {exact.keywords} "
              f"(spread {exact.spread:.1f}, "
              f"{exact.statistics['set_evaluations']:.0f} set evaluations)")
        ratio = greedy.spread / max(exact.spread, 1e-9)
        print(f"greedy achieves {100 * ratio:.0f}% of the exhaustive optimum")

        ranked = sorted(
            greedy.per_keyword_spread.items(), key=lambda kv: -kv[1]
        )
        print("top candidate keywords by singleton spread:")
        for keyword, spread in ranked[:5]:
            print(f"  {keyword:<28s} {spread:6.1f}")

        print("\nradar interpretation:")
        print(render_radar(system.radar(greedy.keywords)))


if __name__ == "__main__":
    main()
