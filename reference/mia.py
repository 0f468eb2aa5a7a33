"""Maximum-influence-arborescence (MIA) model — reference [4].

MIA restricts influence to the highest-probability path between each node
pair and ignores paths below a threshold θ, turning spread computation into
tree dynamic programming.  Benchmark E7 runs :func:`mia_im` as a seed
selection baseline, and the spread-property and cross-validation tests use
:class:`MIAModel` as an independent reference; the served path explorer
(Section II-E, :mod:`repro.core.paths`) walks the same max-probability paths
through :func:`repro.graph.traversal.max_probability_paths` directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.graph.traversal import max_probability_paths
from repro.im.base import IMResult
from repro.utils.heap import LazyGreedyQueue
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_node_id,
    check_positive,
)

__all__ = ["MIAModel", "mia_im"]


class MIAModel:
    """All maximum-influence in-arborescences for one edge-probability vector.

    For every node ``v`` the model stores MIIA(v, θ): the tree of best
    influence paths into ``v`` with path probability ≥ θ.  The expected
    spread of a seed set ``S`` is approximated by ``Σ_v ap(v | S)`` where the
    activation probability ``ap`` is computed bottom-up on each tree.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        threshold: float = 0.01,
    ) -> None:
        probabilities = np.asarray(edge_probabilities, dtype=np.float64)
        if probabilities.shape != (graph.num_edges,):
            raise ValidationError(
                f"edge_probabilities must have shape ({graph.num_edges},), "
                f"got {probabilities.shape}"
            )
        check_in_range(threshold, 0.0, 1.0, "threshold")
        self.graph = graph
        self.edge_probabilities = probabilities
        self.threshold = threshold
        # Per root v: dict node -> next hop toward v, the leaves-first member
        # order, and each tree node's children (one hop further from v).
        self._arborescences: Dict[int, Dict[int, int]] = {}
        self._members_of: Dict[int, List[int]] = {}
        self._children_of: Dict[int, Dict[int, List[int]]] = {}
        self._build()

    def _build(self) -> None:
        graph = self.graph
        for root in range(graph.num_nodes):
            _probs, parents = max_probability_paths(
                graph,
                root,
                self.edge_probabilities,
                threshold=self.threshold,
                reverse=True,
            )
            self._arborescences[root] = parents
            self._members_of[root] = self._topological_order(parents, root)
            children: Dict[int, List[int]] = {}
            for node, parent in parents.items():
                if node != root:
                    children.setdefault(parent, []).append(node)
            self._children_of[root] = children

    @staticmethod
    def _topological_order(parents: Dict[int, int], root: int) -> List[int]:
        """Members of the arborescence ordered leaves-first (root last)."""
        children: Dict[int, List[int]] = {}
        for node, parent in parents.items():
            if node == root:
                continue
            children.setdefault(parent, []).append(node)
        order: List[int] = []
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            for child in children.get(node, []):
                stack.append((child, False))
        return order

    def arborescence(self, root: int) -> Dict[int, int]:
        """MIIA(root): mapping node → next hop toward *root*."""
        check_node_id(root, self.graph.num_nodes, "root")
        return dict(self._arborescences[root])

    def activation_probability(self, root: int, seeds: Set[int]) -> float:
        """``ap(root | seeds)`` under the MIA approximation.

        Tree DP: a non-seed node is activated iff at least one tree child
        activates and its edge fires; children are independent in the tree.
        """
        check_node_id(root, self.graph.num_nodes, "root")
        if root in seeds:
            return 1.0
        children = self._children_of[root]
        ap: Dict[int, float] = {}
        for node in self._members_of[root]:
            if node in seeds:
                ap[node] = 1.0
                continue
            node_children = children.get(node)
            if not node_children:
                ap[node] = 0.0
                continue
            failure = 1.0
            for child in node_children:
                edge_probability = self._tree_edge_probability(child, node)
                failure *= 1.0 - ap.get(child, 0.0) * edge_probability
            ap[node] = 1.0 - failure
        return ap.get(root, 0.0)

    def _tree_edge_probability(self, source: int, target: int) -> float:
        edge_id = self.graph.edge_id(source, target)
        return float(self.edge_probabilities[edge_id])

    def spread(self, seeds: Sequence[int]) -> float:
        """MIA spread approximation ``Σ_v ap(v | seeds)``."""
        seed_set = set(int(s) for s in seeds)
        for node in seed_set:
            check_node_id(node, self.graph.num_nodes, "seed")
        total = 0.0
        for root in range(self.graph.num_nodes):
            total += self.activation_probability(root, seed_set)
        return total


class _CachedMIASpread:
    """Adapter exposing :class:`MIAModel` as a SpreadEstimator with caching."""

    def __init__(self, model: MIAModel) -> None:
        self._model = model
        self._cache: Dict[frozenset, float] = {}

    def spread(self, seeds: Sequence[int]) -> float:
        key = frozenset(int(s) for s in seeds)
        if key not in self._cache:
            self._cache[key] = self._model.spread(key)
        return self._cache[key]


def mia_im(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    k: int,
    *,
    threshold: float = 0.01,
    model: Optional[MIAModel] = None,
    candidates: Optional[Sequence[int]] = None,
) -> IMResult:
    """MIA-based influence maximization: CELF greedy over the MIA spread.

    Deterministic (no sampling).  The MIA spread is submodular in the seed
    set [4], so lazy evaluation is sound.
    """
    check_positive(k, "k")
    if model is None:
        model = MIAModel(graph, edge_probabilities, threshold)
    estimator = _CachedMIASpread(model)
    pool = (
        list(range(graph.num_nodes))
        if candidates is None
        else sorted(set(int(c) for c in candidates))
    )
    if not pool:
        raise ValidationError("candidate pool is empty")
    queue: LazyGreedyQueue = LazyGreedyQueue()
    evaluations = 0
    for node in pool:
        queue.push(node, estimator.spread([node]))
        evaluations += 1
    queue.mark_all_stale()
    seeds: List[int] = []
    gains: List[float] = []
    current = 0.0
    while len(seeds) < k and len(queue) > 0:
        node, gain, fresh = queue.pop_best()
        if fresh or not seeds:
            seeds.append(node)
            gains.append(gain)
            current += gain
            queue.mark_all_stale()
        else:
            refreshed = estimator.spread(seeds + [node]) - current
            evaluations += 1
            queue.push(node, max(refreshed, 0.0))
    spread = estimator.spread(seeds) if seeds else 0.0
    return IMResult(
        seeds=seeds,
        spread=spread,
        marginal_gains=gains,
        evaluations=evaluations,
        statistics={"threshold": threshold},
    )
