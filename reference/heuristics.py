"""Heuristic seed selectors: the cheap baselines.

Scenario 1 contrasts influence maximization with "ranking users with their
individual influence" — these selectors implement exactly that strawman
(degree, PageRank) plus the degree-discount refinement and a random control.
Benchmark E7 measures how much spread they give up against greedy.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from reference.analysis import pagerank
from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = [
    "degree_seeds",
    "degree_discount_seeds",
    "pagerank_seeds",
    "random_seeds",
]


def degree_seeds(graph: SocialGraph, k: int) -> IMResult:
    """The *k* nodes with the largest out-degree."""
    check_positive(k, "k")
    degrees = graph.out_degree()
    order = np.argsort(-degrees, kind="stable")[: min(k, graph.num_nodes)]
    seeds = [int(node) for node in order]
    return IMResult(seeds=seeds, spread=float("nan"), statistics={"method": 0.0})


def degree_discount_seeds(
    graph: SocialGraph,
    k: int,
    edge_probabilities: Optional[np.ndarray] = None,
) -> IMResult:
    """Degree-discount heuristic (Chen et al., KDD 2009), directed variant.

    Each selection discounts the remaining degree of the selected node's
    neighbours; the discount uses the mean activation probability when a
    probability vector is supplied (the classical formula assumes uniform p).
    """
    check_positive(k, "k")
    if edge_probabilities is not None and graph.num_edges > 0:
        probability = float(np.mean(edge_probabilities))
    else:
        probability = 0.1
    degrees = graph.out_degree().astype(np.float64)
    discounted = degrees.copy()
    selected_mask = np.zeros(graph.num_nodes, dtype=bool)
    neighbor_seeds = np.zeros(graph.num_nodes, dtype=np.float64)
    seeds: List[int] = []
    for _ in range(min(k, graph.num_nodes)):
        masked = np.where(selected_mask, -np.inf, discounted)
        node = int(np.argmax(masked))
        if masked[node] == -np.inf:
            break
        seeds.append(node)
        selected_mask[node] = True
        for neighbor in graph.out_neighbors(node):
            neighbor = int(neighbor)
            if selected_mask[neighbor]:
                continue
            neighbor_seeds[neighbor] += 1.0
            t = neighbor_seeds[neighbor]
            discounted[neighbor] = (
                degrees[neighbor]
                - 2.0 * t
                - (degrees[neighbor] - t) * t * probability
            )
    return IMResult(seeds=seeds, spread=float("nan"), statistics={"method": 1.0})


def pagerank_seeds(
    graph: SocialGraph, k: int, damping: float = 0.85, *, reverse: bool = True
) -> IMResult:
    """Top-*k* nodes by PageRank.

    With *reverse* (default) the scores are computed on the reversed graph,
    so mass flows toward *influencers* rather than toward popular sinks —
    the appropriate direction for influence analysis.
    """
    check_positive(k, "k")
    target = graph.reversed() if reverse else graph
    scores = pagerank(target, damping=damping)
    order = np.argsort(-scores, kind="stable")[: min(k, graph.num_nodes)]
    seeds = [int(node) for node in order]
    return IMResult(seeds=seeds, spread=float("nan"), statistics={"method": 2.0})


def random_seeds(graph: SocialGraph, k: int, seed: SeedLike = None) -> IMResult:
    """Uniformly random distinct seeds (the control baseline)."""
    check_positive(k, "k")
    rng = as_generator(seed)
    count = min(k, graph.num_nodes)
    chosen = rng.choice(graph.num_nodes, size=count, replace=False)
    return IMResult(
        seeds=[int(node) for node in chosen],
        spread=float("nan"),
        statistics={"method": 3.0},
    )
