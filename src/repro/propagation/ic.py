"""Forward simulation of the independent cascade (IC) model.

The topic-aware IC model of Section II-B reduces, once a query's topic
distribution γ collapses the per-edge topic weights to scalars, to the
classical IC model: every newly activated node gets one chance to activate
each out-neighbour with the edge's probability.

The one forward engine lives here: :class:`CascadeWorlds` runs a seed
set's cascade in R fixed live-edge worlds at once, and the Monte-Carlo
estimators (:meth:`IndependentCascade.estimate_spread`, the ``mc`` spread
oracle) are counts over those worlds.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.native import coin_thresholds, live_coins
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_node_id, check_positive

__all__ = ["CascadeWorlds", "IndependentCascade"]

#: Queued pairs and gathered edges per step of :class:`CascadeWorlds`:
#: they bound the step's temporaries to a few arrays of 8-byte words.
_STEP_PAIRS = 16384
_STEP_EDGES = 16384


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


class CascadeWorlds:
    """R fixed live-edge worlds of one IC instance, explored together.

    Edge ``e`` is live in world ``w`` iff the 53-bit coin
    ``splitmix64(key, w·E + e) >> 11`` falls below the edge's threshold
    ``⌈p_e·2⁵³⌉`` (:func:`~repro.propagation.native.live_coins`).  Every
    (world, edge) pair owns exactly one independent coin that does not
    depend on the order of traversal, so reachability in each world is
    distributed exactly as an IC cascade, and every evaluation on one
    instance sees the same worlds (common random numbers).

    Node ``v`` of world ``w`` is the pair ``w·n + v``.  The instance holds
    one R×n byte of marks, the *kept* pairs.  :meth:`reach` returns what
    new sources reach in every world at once, on top of the kept pairs:
    each step is one gather → coin → dedup pass over at most
    ``_STEP_PAIRS`` queued (world, node) pairs and ``_STEP_EDGES`` of
    their out-edges, so temporaries stay small whatever the cascade.  A
    reach set is closed under live edges, so exploring new sources on top
    of kept pairs yields exactly their marginal reach.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        num_worlds: int,
        key: int,
    ) -> None:
        self.graph = graph
        self.num_worlds = num_worlds
        self.key = int(key)
        self._thresholds = coin_thresholds(edge_probabilities)
        self._marks = np.zeros(num_worlds * graph.num_nodes, dtype=np.uint8)

    def reach(self, sources: Sequence[int]) -> np.ndarray:
        """The unkept pairs reached from the nodes *sources* in every world,
        in no particular order; the marks stay as they were."""
        pairs = self._walk(sources)
        self._marks[pairs] = 0
        return pairs

    def explore(self, sources: Sequence[int]) -> int:
        """Keep the unkept pairs the nodes *sources* reach in every world
        and return how many there are."""
        return self._walk(sources).size

    def keep(self, pairs: np.ndarray) -> None:
        """Keep the pairs *pairs*."""
        self._marks[pairs] = 1

    def unkept(self, pairs: np.ndarray) -> np.ndarray:
        """The pairs of *pairs* that are not kept, in their order."""
        return pairs[self._marks[pairs] == 0]

    def clear(self) -> None:
        """Unmark every pair."""
        self._marks.fill(0)

    def marked_pairs(self) -> np.ndarray:
        """Every kept pair, ascending."""
        return np.flatnonzero(self._marks)

    def _walk(self, sources: Sequence[int]) -> np.ndarray:
        """Mark and return every unmarked pair reachable from *sources*
        through unmarked pairs."""
        marks = self._marks
        bases = np.arange(self.num_worlds, dtype=np.int64) * self.graph.num_nodes
        queue = (bases[:, None] + np.asarray(sources, dtype=np.int64)).ravel()
        queue = queue[marks[queue] == 0]
        marks[queue] = 1
        reached = [queue]
        while queue.size:
            fresh, queue = self._step(queue)
            marks[fresh] = 1
            reached.append(fresh)
            queue = np.concatenate((queue, fresh))
        return np.concatenate(reached) if len(reached) > 1 else reached[0]

    def _step(self, queue: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Expand a bounded head of *queue*: the unmarked pairs one live
        edge past it (deduplicated), and the rest of the queue."""
        graph = self.graph
        num_nodes = graph.num_nodes
        worlds, nodes = np.divmod(queue[:_STEP_PAIRS], num_nodes)
        starts = graph.out_offsets[nodes]
        degrees = graph.out_offsets[nodes + 1] - starts
        ends = np.cumsum(degrees)
        taken = max(int(np.searchsorted(ends, _STEP_EDGES, side="right")), 1)
        worlds, starts, degrees, ends = (
            worlds[:taken], starts[:taken], degrees[:taken], ends[:taken]
        )
        # Per gathered edge only its id and its coin: the edge's pair is
        # recovered below for the few live ones.
        edges = np.arange(ends[-1], dtype=np.int64)
        edges += np.repeat(starts - (ends - degrees), degrees)
        counters = np.repeat(worlds * graph.num_edges, degrees)
        counters += edges
        live = live_coins(self.key, counters.view(np.uint64), self._thresholds[edges])
        sources = np.searchsorted(ends, live, side="right")
        pairs = worlds[sources] * num_nodes + graph.out_targets[edges[live]]
        fresh = np.unique(pairs[self._marks[pairs] == 0])
        return fresh, queue[taken:]


class IndependentCascade:
    """IC model bound to a graph and a fixed per-edge probability vector.

    Convenience wrapper used wherever a query has already collapsed the
    topic weights: validates and holds the probabilities once, then
    estimates spread on :class:`CascadeWorlds` repeatedly.
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
        if not np.all((probabilities >= 0.0) & (probabilities <= 1.0)):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        self.graph = graph
        self.edge_probabilities = probabilities

    def worlds(self, num_samples: int, seed: SeedLike = None) -> CascadeWorlds:
        """*num_samples* live-edge worlds keyed by one uint64 drawn from *seed*."""
        check_positive(num_samples, "num_samples")
        key = as_generator(seed).integers(0, 2**64, dtype=np.uint64)
        return CascadeWorlds(self.graph, self.edge_probabilities, num_samples, key)

    def sample_reach(
        self, seeds: Sequence[int], num_samples: int, seed: SeedLike = None
    ) -> np.ndarray:
        """The pairs ``w·n + v`` *seeds* reach in :meth:`worlds`."""
        worlds = self.worlds(num_samples, seed)
        worlds.explore(_check_seeds(self.graph, seeds))
        return worlds.marked_pairs()

    def estimate_spread(
        self,
        seeds: Sequence[int],
        num_samples: int = 200,
        seed: SeedLike = None,
    ) -> float:
        """Monte-Carlo estimate of the expected spread σ(seeds)."""
        return self.sample_reach(seeds, num_samples, seed).size / num_samples
