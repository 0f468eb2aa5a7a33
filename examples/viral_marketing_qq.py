#!/usr/bin/env python
"""The QQ deployment scenario — viral marketing on a friendship network.

"OCTOPUS can allow an end-user to input keywords 'game' to find influential
users on topic game in the network, and the end-user can decide to push an
ad to them.  Moreover, OCTOPUS can also suggest influential keywords for a
user, such as 'Gum', 'Strawberry' and 'Xylitol', which indicates the user is
more influential for food-related products."

Run:  python examples/viral_marketing_qq.py
"""

import numpy as np

from repro import Octopus, OctopusConfig, SocialNetworkGenerator


def main() -> None:
    print("== generating synthetic QQ-like friendship network ==")
    dataset = SocialNetworkGenerator(
        num_users=800,
        friends_per_user=6,
        posts_per_user=3,
        seed=41,
    ).generate()
    for key, value in sorted(dataset.summary().items()):
        print(f"  {key:<20s} {value:,.0f}")

    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=200,
            num_topic_samples=16,
            topic_sample_rr_sets=1500,
            seed=42,
        ),
    )

    print("\n== ad targeting: who should receive the 'game' campaign? ==")
    result = system.find_influencers("game", k=8)
    print(f"pushing the ad to these {len(result.seeds)} users reaches an "
          f"estimated {result.spread:.0f} users "
          f"({100 * result.spread / dataset.graph.num_nodes:.1f}% of the "
          f"network):")
    for node, label in result.top(8):
        degree = dataset.graph.out_degree(node)
        print(f"  {label:<22s} ({degree} friends)")

    print("\n== campaign budget sweep ==")
    for k in (1, 2, 4, 8, 16):
        spread = system.find_influencers("game", k=k).spread
        print(f"  k={k:<3d} → estimated reach {spread:7.1f}")

    print("\n== which users are food influencers? ==")
    food_topic = dataset.topic_names.index("food")
    food_lovers = [
        user
        for user, words in dataset.user_keywords.items()
        if len(words) >= 4
        and int(np.argmax(dataset.node_affinities[user])) == food_topic
        and dataset.graph.out_degree(user) >= 5
    ]
    for user in food_lovers[:3]:
        suggestion = system.suggest_keywords(user, k=3)
        print(f"  {suggestion.target_label:<22s} → {suggestion.keywords} "
              f"(spread {suggestion.spread:.1f})")

    print("\n== keyword auto-completion (the demo's input assist) ==")
    for prefix in ("ga", "str", "ip"):
        completions = system.autocomplete_keywords(prefix, limit=3)
        rendered = ", ".join(key for key, _wid in completions)
        print(f"  '{prefix}' → {rendered}")


if __name__ == "__main__":
    main()
