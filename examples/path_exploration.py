#!/usr/bin/env python
"""Scenario 3 — interactive influential path exploration.

Builds forward ("whom does X influence") and reverse ("who influences X")
maximum-influence arborescences, reports the clusters the influenced users
form, simulates the demo's click-highlight interaction, and writes the
d3js-compatible payloads the OCTOPUS web UI would render.

Run:  python examples/path_exploration.py
"""

import json
import os

from repro import CitationNetworkGenerator, Octopus, OctopusConfig
from repro.viz import (
    path_tree_to_d3_force,
    path_tree_to_d3_hierarchy,
    render_path_tree,
)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main() -> None:
    dataset = CitationNetworkGenerator(
        num_researchers=500,
        citations_per_paper=4,
        papers_per_author=3,
        seed=31,
    ).generate()
    system = Octopus.from_dataset(
        dataset,
        config=OctopusConfig(
            num_sketches=100,
            num_topic_samples=8,
            topic_sample_rr_sets=800,
            seed=32,
        ),
    )

    star = system.find_influencers("machine learning", 1).seeds[0]
    label = system.graph.label_of(star)

    print(f"=== how {label} influences the community ===")
    tree = system.explore_paths(star, keywords="machine learning",
                                threshold=0.02)
    print(render_path_tree(tree, max_depth=3, max_children=4))

    clusters = tree.clusters(min_size=2)
    print(f"\ninfluenced users form {len(clusters)} clusters of size >= 2:")
    for index, cluster in enumerate(clusters[:5]):
        names = ", ".join(tree.label_of(n) for n in cluster[:4])
        print(f"  cluster {index}: {len(cluster)} users ({names}, …)")

    # The click interaction: highlight all paths through the strongest child.
    children = tree.children()[tree.root]
    if children:
        clicked = children[0]
        paths = tree.paths_through(clicked)
        print(f"\nclicking on {tree.label_of(clicked)} highlights "
              f"{len(paths)} paths, e.g.:")
        for path in paths[:3]:
            print("  " + " → ".join(tree.label_of(n) for n in path))

    # Reverse exploration: who influences an influenced researcher?
    some_influenced = max(
        (node for node in tree.parents if node != star),
        key=lambda n: tree.probabilities[n],
    )
    reverse = system.explore_paths(
        some_influenced, direction="influenced_by", threshold=0.02
    )
    print(f"\n=== who influences {reverse.label_of(reverse.root)} ===")
    print(render_path_tree(reverse, max_depth=2, max_children=4))

    # Threshold sweep: the interactivity knob.
    print("\nθ sweep (tree size grows as the threshold drops):")
    for theta in (0.1, 0.05, 0.02, 0.01):
        swept = system.explore_paths(star, threshold=theta)
        print(f"  θ={theta:<5g} → {swept.size:4d} nodes")

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    force_path = os.path.join(OUTPUT_DIR, "influence_force.json")
    hierarchy_path = os.path.join(OUTPUT_DIR, "influence_hierarchy.json")
    with open(force_path, "w", encoding="utf-8") as handle:
        json.dump(path_tree_to_d3_force(tree), handle, indent=1)
    with open(hierarchy_path, "w", encoding="utf-8") as handle:
        json.dump(path_tree_to_d3_hierarchy(tree), handle, indent=1)
    print(f"\nd3 payloads written to {force_path} and {hierarchy_path}")


if __name__ == "__main__":
    main()
