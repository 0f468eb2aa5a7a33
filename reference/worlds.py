"""Fixed live-edge possible worlds, one threshold array per world: an
independent forward-IC reference for the spread tests.

A *world* assigns each edge a uniform threshold ``θ_e``; under a query topic
distribution γ the edge is *live* iff ``θ_e ≤ pp_e(γ)``.  Since
``P(θ_e ≤ p) = p``, reachability in a world distributes exactly as an IC
cascade — but crucially the thresholds are shared across all γ, so spreads
under different keyword sets are *coupled*: if ``pp_e(γ) ≤ pp_e(γ′)`` on
every edge then the live-edge graph under γ is a subgraph of the one under
γ′.  The served engine, :class:`repro.propagation.ic.CascadeWorlds`, draws
its coins from a counter-keyed hash instead; the tests compare the two.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_node_id, check_positive

__all__ = ["LiveEdgeWorld", "WorldEnsemble"]


class LiveEdgeWorld:
    """One possible world: a fixed threshold per edge."""

    def __init__(self, graph: SocialGraph, thresholds: np.ndarray) -> None:
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.shape != (graph.num_edges,):
            raise ValidationError(
                f"thresholds must have shape ({graph.num_edges},), "
                f"got {thresholds.shape}"
            )
        self.graph = graph
        self.thresholds = thresholds
        self.thresholds.setflags(write=False)

    @classmethod
    def sample(cls, graph: SocialGraph, seed: SeedLike = None) -> "LiveEdgeWorld":
        """Draw a world with iid uniform thresholds."""
        rng = as_generator(seed)
        return cls(graph, rng.random(graph.num_edges))

    def live_mask(self, edge_probabilities: np.ndarray) -> np.ndarray:
        """Boolean liveness per edge under the given probabilities."""
        return self.thresholds <= edge_probabilities

    def reachable_from(
        self, seeds: Sequence[int], edge_probabilities: np.ndarray
    ) -> Set[int]:
        """Nodes reachable from *seeds* over live edges."""
        mask = self.live_mask(edge_probabilities)
        activated: Set[int] = set()
        frontier: List[int] = []
        for node in seeds:
            node = check_node_id(int(node), self.graph.num_nodes, "seed")
            if node not in activated:
                activated.add(node)
                frontier.append(node)
        graph = self.graph
        while frontier:
            node = frontier.pop()
            start, stop = graph.out_offsets[node], graph.out_offsets[node + 1]
            live = np.flatnonzero(mask[start:stop])
            for offset in live:
                target = int(graph.out_targets[start + offset])
                if target not in activated:
                    activated.add(target)
                    frontier.append(target)
        return activated

    def reaches(
        self, source: int, target: int, edge_probabilities: np.ndarray
    ) -> bool:
        """Whether *source* reaches *target* over live edges."""
        check_node_id(source, self.graph.num_nodes, "source")
        check_node_id(target, self.graph.num_nodes, "target")
        if source == target:
            return True
        return target in self.reachable_from([source], edge_probabilities)


class WorldEnsemble:
    """A reproducible collection of live-edge worlds.

    Spread estimates over the ensemble are deterministic for a fixed seed,
    which the lazy-greedy keyword search requires: comparing keyword sets on
    the *same* worlds removes sampling noise from the comparison.
    """

    def __init__(self, graph: SocialGraph, num_worlds: int, seed: SeedLike = None):
        check_positive(num_worlds, "num_worlds")
        rng = as_generator(seed)
        self.graph = graph
        self.worlds: List[LiveEdgeWorld] = [
            LiveEdgeWorld.sample(graph, rng) for _ in range(num_worlds)
        ]

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self):
        return iter(self.worlds)

    def estimate_spread(
        self, seeds: Sequence[int], edge_probabilities: np.ndarray
    ) -> float:
        """Average reachable-set size across the ensemble (unbiased σ)."""
        total = 0
        for world in self.worlds:
            total += len(world.reachable_from(seeds, edge_probabilities))
        return total / len(self.worlds)
