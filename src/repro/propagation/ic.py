"""Forward simulation of the independent cascade (IC) model.

The topic-aware IC model of Section II-B reduces, once a query's topic
distribution γ collapses the per-edge topic weights to scalars, to the
classical IC model: every newly activated node gets one chance to activate
each out-neighbour with the edge's probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.kernels import gather_csr_slices
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_node_id, check_positive

__all__ = ["simulate_cascade", "CascadeTrace", "IndependentCascade"]


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


def _check_seeds(graph: SocialGraph, seeds: Sequence[int]) -> Tuple[int, ...]:
    if len(seeds) == 0:
        raise ValidationError("seed set must not be empty")
    checked = []
    seen = set()
    for node in seeds:
        node = check_node_id(int(node), graph.num_nodes, "seed")
        if node in seen:
            raise ValidationError(f"duplicate seed {node}")
        seen.add(node)
        checked.append(node)
    return tuple(checked)


class IndependentCascade:
    """IC model bound to a graph and a fixed per-edge probability vector.

    Convenience wrapper used wherever a query has already collapsed the
    topic weights: holds the probabilities once, then simulates or estimates
    spread repeatedly.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
    ) -> None:
        probabilities = np.asarray(edge_probabilities, dtype=np.float64)
        if probabilities.shape != (graph.num_edges,):
            raise ValidationError(
                f"edge_probabilities must have shape ({graph.num_edges},), "
                f"got {probabilities.shape}"
            )
        if np.any(probabilities < 0.0) or np.any(probabilities > 1.0):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        self.graph = graph
        self.edge_probabilities = probabilities

    def simulate(
        self, seeds: Sequence[int], seed: SeedLike = None, *, record_trace: bool = False
    ) -> CascadeTrace:
        """One cascade from *seeds* (see :func:`simulate_cascade`)."""
        return simulate_cascade(
            self.graph,
            self.edge_probabilities,
            seeds,
            seed,
            record_trace=record_trace,
        )

    def estimate_spread(
        self,
        seeds: Sequence[int],
        num_samples: int = 200,
        seed: SeedLike = None,
    ) -> float:
        """Monte-Carlo estimate of the expected spread σ(seeds)."""
        check_positive(num_samples, "num_samples")
        rng = as_generator(seed)
        total = 0
        for _ in range(num_samples):
            total += self.simulate(seeds, rng).spread
        return total / num_samples

    def estimate_spread_with_interval(
        self,
        seeds: Sequence[int],
        num_samples: int = 200,
        seed: SeedLike = None,
        z_score: float = 1.96,
    ) -> Tuple[float, float]:
        """Spread estimate with a normal-approximation half-width."""
        check_positive(num_samples, "num_samples")
        rng = as_generator(seed)
        values = np.empty(num_samples, dtype=np.float64)
        for index in range(num_samples):
            values[index] = self.simulate(seeds, rng).spread
        mean = float(values.mean())
        if num_samples > 1:
            half_width = z_score * float(values.std(ddof=1)) / np.sqrt(num_samples)
        else:
            half_width = float("inf")
        return mean, half_width
