"""One RR set at a time, with lazy coins from a generator.

:func:`generate_rr_set` samples a single reverse-reachable set from a root
the caller picks and returns it as a Python ``set``: the textbook reverse
BFS, one fresh coin from a :class:`numpy.random.Generator` per examined
in-edge.  It shares no randomness with the served counter-keyed kernel
(:mod:`repro.propagation.kernels`), which makes it an independent
reference for the tests that check that kernel's distribution.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.kernels import gather_csr_slices
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_node_id

__all__ = ["generate_rr_set"]


def generate_rr_set(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    root: int,
    seed: SeedLike = None,
) -> Set[int]:
    """Sample one RR set rooted at *root*.

    Performs a reverse BFS where each in-edge is crossed with its activation
    probability; coins are flipped lazily, one array per BFS level, so each
    edge is examined at most once per sample, which matches the IC
    distribution.

    A shared :class:`~numpy.random.Generator` passed as *seed* is used
    directly (no per-call re-wrapping), so hot loops can hand one stream
    across many samples at no coercion cost.
    """
    check_node_id(root, graph.num_nodes, "root")
    rng = as_generator(seed)
    edge_probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        slots = gather_csr_slices(
            graph.in_offsets[frontier], graph.in_offsets[frontier + 1]
        )
        coins = rng.random(slots.size)
        live = slots[coins < edge_probabilities[graph.in_edge_ids[slots]]]
        sources = graph.in_sources[live]
        frontier = np.unique(sources[~visited[sources]])
        visited[frontier] = True
    return set(np.flatnonzero(visited).tolist())
