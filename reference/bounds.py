"""The upper-bound estimator for topic-aware influence spread (§II-C).

Reference only: it prunes :class:`reference.besteffort.BestEffortKeywordIM`,
which the served system no longer runs.

The best-effort framework "estimates an upper bound of the influence spread
for each user and then preferentially computes the exact influence spread for
the users with larger upper bounds".  :class:`PrecomputationBound` is [3]'s
precomputation-based estimator: per-dominant-topic interpolation grids of
walk-sum bounds, an O(n) copy per query.

Soundness.  It rests on the *walk-sum bound*: under IC the probability
that a node ``v`` becomes activated is at most the sum over all walks
``u → v`` of the product of edge probabilities (union bound over the walk
prefix trees), so

    σ(u) ≤ Σ_v Σ_{walks u→v} Π_{e∈walk} p_e  =  (Σ_t P^t 1)_u ,

capped at ``n`` since a spread never exceeds the node count.  The bound is
monotone in every edge probability, so evaluating it under any elementwise
upper bound of the query probabilities stays sound.  For query dependence we
use ``p_e(γ) ≤ λ·p_e^{z*} + (1−λ)·p̄_e`` where ``z*`` is the query's dominant
topic, ``λ = γ_{z*}`` and ``p̄`` is the topic envelope ``max_z p^z`` — exact
at ``λ=1`` (pure-topic query) and degrading gracefully to the global
envelope at ``λ=0``.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import (
    ValidationError,
    check_positive,
    check_simplex,
)

__all__ = [
    "walk_sum_bounds",
    "UpperBoundEstimator",
    "PrecomputationBound",
]


def walk_sum_bounds(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    *,
    cap: Optional[float] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Walk-sum spread upper bound for every node.

    Computes the least fixpoint of ``x = min(cap, 1 + P x)`` by monotone
    iteration from ``x = 1``, where ``(P x)_u = Σ_{e=(u,w)} p_e x_w``.
    ``x_u`` upper-bounds σ({u}).  The cap (default ``n``) both reflects the
    trivial bound σ ≤ n and guarantees convergence when the walk series
    diverges.
    """
    probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if probabilities.shape != (graph.num_edges,):
        raise ValidationError(
            f"edge_probabilities must have shape ({graph.num_edges},), "
            f"got {probabilities.shape}"
        )
    if cap is None:
        cap = float(graph.num_nodes)
    check_positive(cap, "cap")
    check_positive(max_iterations, "max_iterations")
    sources = graph.edge_sources()
    targets = graph.out_targets
    x = np.ones(graph.num_nodes, dtype=np.float64)
    for _ in range(max_iterations):
        incoming = np.zeros(graph.num_nodes, dtype=np.float64)
        np.add.at(incoming, sources, probabilities * x[targets])
        updated = np.minimum(cap, 1.0 + incoming)
        if np.abs(updated - x).max() < tolerance:
            x = updated
            break
        x = updated
    return x


class UpperBoundEstimator(Protocol):
    """Per-user upper bounds on σ_γ({u}) for keyword queries."""

    def bounds(self, gamma: np.ndarray) -> np.ndarray:
        """Upper bound per node for topic distribution γ."""
        ...


class PrecomputationBound:
    """Precomputation-based estimator: dominant-topic interpolation grids.

    Offline, for every topic ``z`` and every grid value ``λ``, the walk-sum
    bounds are computed under the edge probabilities
    ``λ·p^z + (1−λ)·p̄`` (query probabilities are elementwise below this
    whenever the query's dominant topic is ``z`` with mass ≥ λ).  Online, a
    query reads the grid row for its dominant topic with λ *rounded down* —
    rounding down only loosens the bound, preserving soundness.

    Index size: ``O(n · Z · grid)`` floats; query: O(n) copy.
    """

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        grid: int = 4,
        *,
        max_iterations: int = 100,
    ) -> None:
        check_positive(grid, "grid")
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        self.grid_values = np.linspace(0.0, 1.0, grid + 1)
        envelope = edge_weights.max_over_topics()
        num_topics = edge_weights.num_topics
        self._tables = np.empty(
            (num_topics, len(self.grid_values), self.graph.num_nodes),
            dtype=np.float64,
        )
        for topic in range(num_topics):
            column = edge_weights.topic_column(topic)
            for level, lam in enumerate(self.grid_values):
                mixed = lam * column + (1.0 - lam) * envelope
                self._tables[topic, level] = walk_sum_bounds(
                    self.graph, mixed, max_iterations=max_iterations
                )

    def bounds(self, gamma: np.ndarray) -> np.ndarray:
        """Per-node bound: grid row of the dominant topic, λ rounded down."""
        gamma = check_simplex(gamma, "gamma")
        if gamma.size != self.edge_weights.num_topics:
            raise ValidationError(
                f"gamma has {gamma.size} entries for "
                f"{self.edge_weights.num_topics} topics"
            )
        topic = int(np.argmax(gamma))
        lam = float(gamma[topic])
        level = int(np.searchsorted(self.grid_values, lam, side="right") - 1)
        level = max(0, min(level, len(self.grid_values) - 1))
        return self._tables[topic, level].copy()

    @property
    def index_size(self) -> int:
        """Number of floats stored."""
        return int(self._tables.size)

