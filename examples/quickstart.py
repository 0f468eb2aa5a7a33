#!/usr/bin/env python
"""Quickstart: build an OCTOPUS system and query all three services.

Generates a synthetic ACMCite-like citation network (the paper's first demo
network), builds the online indexes, wraps them in the typed
request/response service layer, and runs:

1. keyword-based influential user discovery ("data mining"),
2. personalized influential keyword suggestion for the top influencer,
3. influential path exploration with an ASCII rendering.

Every query goes through :class:`repro.OctopusService` — typed request in,
JSON-serializable :class:`repro.ServiceResponse` envelope out.

Run:  python examples/quickstart.py
"""

from repro import (
    CitationNetworkGenerator,
    ExplorePathsRequest,
    FindInfluencersRequest,
    Octopus,
    OctopusConfig,
    OctopusService,
    RadarRequest,
    StatsRequest,
    SuggestKeywordsRequest,
)
from repro.core.paths import PathTree
from repro.viz import render_path_tree, render_radar


def main() -> None:
    print("== generating synthetic ACMCite network ==")
    dataset = CitationNetworkGenerator(
        num_researchers=500,
        citations_per_paper=4,
        papers_per_author=3,
        seed=7,
    ).generate()
    for key, value in sorted(dataset.summary().items()):
        print(f"  {key:<20s} {value:,.0f}")

    print("\n== building OCTOPUS ==")
    config = OctopusConfig(
        num_sketches=200,
        num_topic_samples=16,
        topic_sample_rr_sets=1500,
        # Index builds parallelise across a worker pool; the backend is pure
        # scheduling — with a fixed seed "serial" (the default), "threads"
        # and "processes" give identical results at any worker count (the
        # CLI equivalent is ``--backend threads --workers 4``).
        execution_backend="threads",
        workers=4,
        seed=11,
    )
    service = OctopusService(Octopus.from_dataset(dataset, config=config))

    print("\n== service 1: keyword-based influential user discovery ==")
    response = service.execute(FindInfluencersRequest("data mining", k=5))
    found = response.raise_for_error().payload
    print(f"query keywords : {found['keywords']}")
    print(f"influence spread: {found['spread']:.1f} researchers")
    print(f"answered in     : {response.latency_ms:.1f} ms")
    ranked = zip(found["seeds"], found["labels"])
    for rank, (node, label) in enumerate(ranked, start=1):
        print(f"  {rank}. {label} (user {node})")

    print("\n== service 2: personalized influential keywords ==")
    star = found["seeds"][0]
    suggestion = service.execute(
        SuggestKeywordsRequest(user=star, k=3)
    ).raise_for_error().payload
    print(f"selling points of {suggestion['target_label']}:")
    for keyword in suggestion["keywords"]:
        print(f"  - {keyword}")
    print(f"topic-aware spread: {suggestion['spread']:.1f}")
    print("\nradar interpretation of the suggested keywords:")
    radar = service.execute(RadarRequest(suggestion["keywords"])).payload
    print(render_radar(radar))

    print("\n== service 3: influential path exploration ==")
    tree_payload = service.execute(
        ExplorePathsRequest(user=star, keywords="data mining", threshold=0.02)
    ).raise_for_error().payload
    tree = PathTree.from_dict(tree_payload)
    print(render_path_tree(tree, max_depth=3, max_children=3))
    clusters = tree.clusters(min_size=2)
    print(f"\n{len(clusters)} influence clusters; largest has "
          f"{len(clusters[0]) if clusters else 0} researchers")

    print("\n== system statistics ==")
    stats = service.execute(StatsRequest()).payload
    for key, value in sorted(stats.items()):
        print(f"  {key:<40s} {value:.4f}")


if __name__ == "__main__":
    main()
