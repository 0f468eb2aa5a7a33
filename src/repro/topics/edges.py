"""Per-edge topic-dependent activation probabilities ``pp^z_{u,v}``.

The core data structure of the topic-aware IC model: an ``(m × Z)`` array
aligned with the graph's edge ids.  A query's topic distribution γ collapses
it to scalar per-edge probabilities via ``pp_e(γ) = Σ_z pp^z_e γ_z`` — one
mat-vec.  The naive online-IM baseline pays exactly this collapse plus a full
IM run per query; the online algorithms avoid touching the full matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    ValidationError,
    check_array_shape,
    check_in_range,
    check_positive,
    check_simplex,
)

__all__ = ["TopicEdgeWeights"]


class TopicEdgeWeights:
    """Topic-dependent activation probabilities for every edge of a graph."""

    def __init__(self, graph: SocialGraph, weights: np.ndarray) -> None:
        matrix = np.asarray(weights, dtype=np.float64)
        check_array_shape(matrix, (graph.num_edges, None), "weights")
        if matrix.shape[1] < 1:
            raise ValidationError("weights must have >= 1 topic column")
        if np.any(matrix < 0.0) or np.any(matrix > 1.0):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        self.graph = graph
        self.weights = matrix
        self.weights.setflags(write=False)
        self.num_topics = matrix.shape[1]
        self._max_over_topics: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Query-time collapse
    # ------------------------------------------------------------------

    def edge_probabilities(self, gamma: np.ndarray) -> np.ndarray:
        """Per-edge probability under topic distribution γ (``W @ γ``)."""
        gamma = check_simplex(gamma, "gamma")
        if gamma.size != self.num_topics:
            raise ValidationError(
                f"gamma has {gamma.size} entries for {self.num_topics} topics"
            )
        return self.weights @ gamma

    def edge_probability(self, edge_id: int, gamma: np.ndarray) -> float:
        """Probability of a single edge under γ."""
        if not 0 <= edge_id < self.graph.num_edges:
            raise ValidationError(
                f"edge_id must be in [0, {self.graph.num_edges}), got {edge_id}"
            )
        gamma = check_simplex(gamma, "gamma")
        return float(self.weights[edge_id] @ gamma)

    def topic_column(self, topic: int) -> np.ndarray:
        """All edges' probabilities on a single *topic* (read-only view)."""
        if not 0 <= topic < self.num_topics:
            raise ValidationError(
                f"topic must be in [0, {self.num_topics}), got {topic}"
            )
        return self.weights[:, topic]

    def max_over_topics(self) -> np.ndarray:
        """``max_z pp^z_e`` per edge — the universal upper envelope.

        No topic distribution can make an edge more probable than this, so
        it powers permanent pruning in the influencer index and the
        precomputed spread bounds.  Cached after the first call.
        """
        if self._max_over_topics is None:
            self._max_over_topics = self.weights.max(axis=1)
            self._max_over_topics.setflags(write=False)
        return self._max_over_topics

    # ------------------------------------------------------------------
    # Constructors for synthetic models
    # ------------------------------------------------------------------

    @classmethod
    def random_trivalency(
        cls,
        graph: SocialGraph,
        num_topics: int,
        levels: tuple = (0.1, 0.01, 0.001),
        seed: SeedLike = None,
    ) -> "TopicEdgeWeights":
        """Trivalency model per topic: each ``pp^z_e`` uniform over *levels*."""
        check_positive(num_topics, "num_topics")
        rng = as_generator(seed)
        choices = np.asarray(levels, dtype=np.float64)
        if np.any(choices < 0) or np.any(choices > 1):
            raise ValidationError("levels must be probabilities in [0, 1]")
        weights = choices[
            rng.integers(0, len(choices), size=(graph.num_edges, num_topics))
        ]
        return cls(graph, weights)

    @classmethod
    def weighted_cascade(
        cls,
        graph: SocialGraph,
        num_topics: int,
        topic_sharpness: float = 2.0,
        seed: SeedLike = None,
    ) -> "TopicEdgeWeights":
        """Weighted-cascade base (``1/in_degree(v)``) modulated per topic.

        Each edge draws a Dirichlet topic profile (sharpness < 1 ⇒ edges are
        topical, concentrating probability on few topics) and scales the
        weighted-cascade base probability so that the *average* over topics
        equals the base — preserving the classical model in expectation.
        """
        check_positive(num_topics, "num_topics")
        check_positive(topic_sharpness, "topic_sharpness")
        rng = as_generator(seed)
        in_degree = graph.in_degree().astype(np.float64)
        base = np.zeros(graph.num_edges, dtype=np.float64)
        for edge_id, _source, target in graph.edges():
            base[edge_id] = 1.0 / max(in_degree[target], 1.0)
        profile = rng.dirichlet(
            np.full(num_topics, topic_sharpness), size=graph.num_edges
        )
        weights = np.minimum(base[:, None] * profile * num_topics, 1.0)
        return cls(graph, weights)

    @classmethod
    def from_node_affinities(
        cls,
        graph: SocialGraph,
        node_affinities: np.ndarray,
        base_probability: float = 0.2,
        seed: SeedLike = None,
        noise: float = 0.05,
    ) -> "TopicEdgeWeights":
        """Ground-truth construction used by the dataset generators.

        ``pp^z_{u,v} = base · sqrt(affinity_u[z] · affinity_v[z]) + ε`` — an
        edge carries influence on a topic only when *both* endpoints care
        about the topic, which is what makes keyword queries discriminative.
        """
        affinities = np.asarray(node_affinities, dtype=np.float64)
        check_array_shape(affinities, (graph.num_nodes, None), "node_affinities")
        check_in_range(base_probability, 0.0, 1.0, "base_probability")
        check_in_range(noise, 0.0, 1.0, "noise")
        rng = as_generator(seed)
        sources = graph.edge_sources()
        targets = graph.out_targets
        geometric = np.sqrt(affinities[sources] * affinities[targets])
        weights = base_probability * geometric
        if noise > 0.0:
            weights = weights + noise * rng.random(weights.shape) * base_probability
        return cls(graph, np.clip(weights, 0.0, 1.0))

    def __repr__(self) -> str:
        return (
            f"TopicEdgeWeights(num_edges={self.graph.num_edges}, "
            f"num_topics={self.num_topics})"
        )
