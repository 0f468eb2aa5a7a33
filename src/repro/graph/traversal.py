"""Graph traversal for the path explorer.

:func:`max_probability_paths` is a Dijkstra variant on
edge *activation probabilities* (multiplicative, maximised) used to build the
maximum-influence arborescences of Section II-E and the MIA influence
maximization baseline.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.utils.validation import check_in_range, check_node_id

__all__ = ["max_probability_paths"]


def max_probability_paths(
    graph: SocialGraph,
    source: int,
    edge_probabilities: np.ndarray,
    *,
    threshold: float = 0.0,
    reverse: bool = False,
    max_nodes: Optional[int] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Highest-probability influence paths from (or to) *source*.

    Runs Dijkstra where a path's weight is the product of its edges'
    activation probabilities and larger is better.  Exploration stops below
    *threshold* (the MIA pruning parameter θ of [4]) or after *max_nodes*
    settled nodes.

    Parameters
    ----------
    edge_probabilities:
        Probability per edge id (out-CSR order).
    reverse:
        When true, paths *into* ``source`` are found (maximum influence
        in-arborescence); parents then point one hop closer to ``source``
        along the original edge direction.

    Returns
    -------
    (probabilities, parents):
        ``probabilities[v]`` is the best path probability from ``source`` to
        ``v`` (or ``v`` to ``source`` when reversed); ``parents[v]`` is the
        previous node on that best path (``source`` maps to itself).
    """
    check_node_id(source, graph.num_nodes, "source")
    check_in_range(threshold, 0.0, 1.0, "threshold")
    probabilities: Dict[int, float] = {source: 1.0}
    parents: Dict[int, int] = {source: source}
    settled = set()
    # Max-heap via negated probabilities.
    heap = [(-1.0, source)]
    while heap:
        negative_probability, node = heapq.heappop(heap)
        probability = -negative_probability
        if node in settled:
            continue
        settled.add(node)
        if max_nodes is not None and len(settled) >= max_nodes:
            break
        if reverse:
            neighbors = graph.in_neighbors(node)
            edge_ids = graph.in_edge_ids_of(node)
        else:
            neighbors = graph.out_neighbors(node)
            edge_ids = graph.out_edge_ids(node)
        for neighbor, edge_id in zip(neighbors, edge_ids):
            neighbor = int(neighbor)
            if neighbor in settled:
                continue
            candidate = probability * float(edge_probabilities[edge_id])
            if candidate < threshold or candidate <= 0.0:
                continue
            if candidate > probabilities.get(neighbor, 0.0):
                probabilities[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (-candidate, neighbor))
    # Drop frontier entries that were never settled but also never beat the
    # threshold check; entries in `probabilities` below threshold can only be
    # non-source nodes inserted before a better path displaced them.
    if threshold > 0.0:
        for node in [n for n, p in probabilities.items() if p < threshold]:
            del probabilities[node]
            del parents[node]
    return probabilities, parents
