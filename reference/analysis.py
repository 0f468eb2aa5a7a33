"""Structural analysis helpers: PageRank, components, degree statistics.

PageRank provides the "individual influence ranking" strawman that Scenario 1
contrasts against influence maximization (IM finds *complementary* seeds,
ranking finds redundant ones); components and degree histograms describe a
generated graph's shape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.utils.validation import check_in_range, check_positive

__all__ = ["pagerank", "weakly_connected_components", "degree_histogram"]


def pagerank(
    graph: SocialGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """PageRank scores via power iteration on the CSR structure.

    Dangling nodes (zero out-degree) redistribute their mass uniformly.
    Returns a probability vector over nodes.
    """
    check_in_range(damping, 0.0, 1.0, "damping")
    check_positive(max_iterations, "max_iterations")
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    out_degree = graph.out_degree().astype(np.float64)
    dangling = out_degree == 0
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    sources = graph.edge_sources()
    targets = graph.out_targets
    for _ in range(max_iterations):
        contribution = np.where(dangling, 0.0, scores / np.maximum(out_degree, 1.0))
        incoming = np.zeros(n, dtype=np.float64)
        np.add.at(incoming, targets, contribution[sources])
        dangling_mass = scores[dangling].sum() / n
        updated = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        if np.abs(updated - scores).sum() < tolerance:
            scores = updated
            break
        scores = updated
    return scores / scores.sum()


def weakly_connected_components(graph: SocialGraph) -> np.ndarray:
    """Component label per node (labels are 0..c-1 in discovery order)."""
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            for neighbor in graph.out_neighbors(node):
                if labels[neighbor] == -1:
                    labels[neighbor] = current
                    stack.append(int(neighbor))
            for neighbor in graph.in_neighbors(node):
                if labels[neighbor] == -1:
                    labels[neighbor] = current
                    stack.append(int(neighbor))
        current += 1
    return labels


def degree_histogram(graph: SocialGraph, *, incoming: bool = True) -> Dict[int, int]:
    """Histogram mapping degree value to node count."""
    degrees = graph.in_degree() if incoming else graph.out_degree()
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def top_nodes_by_degree(
    graph: SocialGraph, k: int, *, incoming: bool = True
) -> List[Tuple[int, int]]:
    """The *k* nodes with the largest (in- or out-) degree, as (node, degree)."""
    check_positive(k, "k")
    degrees = graph.in_degree() if incoming else graph.out_degree()
    k = min(k, graph.num_nodes)
    order = np.argsort(-degrees, kind="stable")[:k]
    return [(int(node), int(degrees[node])) for node in order]
