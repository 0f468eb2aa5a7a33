#!/usr/bin/env python
"""The full §II-B learning pipeline: fit the topic-aware IC model by EM.

Instead of using the generator's ground truth, this example treats the
action logs as the only observable data (as OCTOPUS must with real
networks), jointly learns ``pp^z_{u,v}`` and ``p(w|z)`` with the EM
algorithm of [2], and compares the resulting influence analyses against the
planted model.

Run:  python examples/learn_from_logs.py
"""

from repro import CitationNetworkGenerator, Octopus, OctopusConfig
from repro.topics.em import EMConfig, TICLearner


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=400,
        citations_per_paper=4,
        papers_per_author=4,
        seed=51,
    ).generate()
    print(f"action log: {len(dataset.items)} items, "
          f"{dataset.summary()['num_exposures']:.0f} exposures, "
          f"{dataset.summary()['num_activations']:.0f} activations")

    print("\n== fitting the TIC model by EM ==")
    learner = TICLearner(
        dataset.graph,
        dataset.vocabulary,
        EMConfig(num_topics=8, max_iterations=30, seed=0),
    )
    fitted = learner.fit(dataset.items)
    lls = fitted.log_likelihoods
    print(f"converged after {fitted.iterations} iterations; "
          f"log-likelihood {lls[0]:.0f} → {lls[-1]:.0f}")

    print("\nlearned topics (top keywords):")
    for topic in range(fitted.topic_model.num_topics):
        top = ", ".join(w for w, _p in fitted.topic_model.top_words(topic, 4))
        print(f"  topic {topic}: {top}")

    print("\n== building OCTOPUS on the learned model ==")
    config = OctopusConfig(
        num_sketches=150,
        num_topic_samples=12,
        topic_sample_rr_sets=1000,
        seed=52,
    )
    learned_system = Octopus(
        dataset.graph,
        fitted.topic_model,
        fitted.edge_weights,
        dataset.user_keywords,
        config=config,
    )
    planted_system = Octopus.from_dataset(dataset, config=config)

    print("\n== learned vs planted model on the same queries ==")
    for query in ("data mining", "consensus", "web search"):
        learned_result = learned_system.find_influencers(query, 5)
        planted_result = planted_system.find_influencers(query, 5)
        overlap = len(set(learned_result.seeds) & set(planted_result.seeds))
        print(f"  {query!r}: seed overlap {overlap}/5, spreads "
              f"{learned_result.spread:.1f} vs {planted_result.spread:.1f}")

    gamma_learned = learned_system.derive_gamma("data mining")
    gamma_planted = planted_system.derive_gamma("data mining")
    print(f"\nγ('data mining') sharpness: learned {gamma_learned.max():.2f}, "
          f"planted {gamma_planted.max():.2f}")


if __name__ == "__main__":
    main()
