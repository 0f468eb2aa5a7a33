"""One traced forward IC cascade: the single-cascade reference.

:func:`simulate_cascade` flips every coin from one NumPy stream and can
record which edge activated each node.  Serving never runs it — every
served spread estimate is a count over the fixed live-edge worlds of
:class:`repro.propagation.ic.CascadeWorlds` — so it lives here, where the
tests use it as an engine independent of those worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.ic import _check_seeds
from repro.propagation.kernels import gather_csr_slices
from repro.utils.rng import SeedLike, as_generator

__all__ = ["simulate_cascade", "CascadeTrace"]


@dataclass
class CascadeTrace:
    """Full record of one simulated cascade.

    ``activation_edges`` holds ``(edge_id, source, target)`` for every
    successful activation, in activation order; seeds have no incoming
    activation edge.
    """

    seeds: Tuple[int, ...]
    activated: Set[int]
    activation_edges: List[Tuple[int, int, int]]

    @property
    def spread(self) -> int:
        """Number of activated nodes (seeds included)."""
        return len(self.activated)


def simulate_cascade(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    seeds: Sequence[int],
    seed: SeedLike = None,
    *,
    record_trace: bool = False,
) -> CascadeTrace:
    """Simulate one IC cascade from *seeds*.

    Each edge out of a newly activated node flips an independent coin with
    the edge's probability.  Returns a :class:`CascadeTrace`; when
    *record_trace* is false the ``activation_edges`` list stays empty (faster
    and lighter for spread estimation).

    Frontier-batched, one coin array per level: gather the CSR out-slices
    of every frontier node into one edge-index array (out-CSR position *is*
    the edge id), flip all the level's coins in a single draw, drop targets
    that are already active, and resolve same-level races with
    ``np.unique`` — the first successful edge in gathered order (frontier
    order × CSR slice order) wins the target.  The next frontier is the
    sorted winner set.
    """
    rng = as_generator(seed)
    seed_tuple = _check_seeds(graph, seeds)
    out_offsets = graph.out_offsets
    out_targets = graph.out_targets
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.asarray(seed_tuple, dtype=np.int64)
    active[frontier] = True
    edges: List[Tuple[int, int, int]] = []
    while frontier.size:
        starts = out_offsets[frontier]
        stops = out_offsets[frontier + 1]
        gathered = gather_csr_slices(starts, stops)
        if gathered.size == 0:
            break
        coins = rng.random(gathered.size)
        hits = np.flatnonzero(coins < edge_probabilities[gathered])
        if record_trace:
            sources = np.repeat(frontier, stops - starts)
        hit_edges = gathered[hits]
        candidates = out_targets[hit_edges]
        fresh = ~active[candidates]
        hit_edges = hit_edges[fresh]
        candidates = candidates[fresh]
        if candidates.size == 0:
            break
        winners, first_hit = np.unique(candidates, return_index=True)
        active[winners] = True
        if record_trace:
            hit_sources = sources[hits][fresh]
            for position in np.sort(first_hit):
                edges.append(
                    (
                        int(hit_edges[position]),
                        int(hit_sources[position]),
                        int(candidates[position]),
                    )
                )
        frontier = winners
    activated = {int(node) for node in np.flatnonzero(active)}
    return CascadeTrace(seeds=seed_tuple, activated=activated, activation_edges=edges)
