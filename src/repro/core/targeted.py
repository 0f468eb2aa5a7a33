"""Targeted keyword influence maximization (extension; reference [7]).

The paper's QQ deployment pushes ads for *viral marketing*; its reference
[7] (Li, Zhang, Tan — "Real-time targeted influence maximization for online
advertisements", PVLDB 2015) refines the objective: only users relevant to
the advertised topic should count toward the spread.  This module
implements that extension on top of the OCTOPUS substrates:

* the **audience** is a non-negative weight per user — either supplied
  explicitly, or derived from the action logs (users who used the query's
  keywords, weighted by frequency) via the inverted index;
* the objective becomes the *weighted* spread
  ``σ_w(S) = Σ_v w_v · P(S activates v)``;
* seeds are selected by **weighted reverse-reachable sampling**: RR-set
  roots are drawn proportionally to audience weight, so greedy maximum
  coverage optimises the weighted objective with the usual
  ``(1 − 1/e − ε)`` guarantee (the estimator is unbiased:
  ``σ̂_w(S) = W_total · covered / num_sets``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.im.base import IMResult
from repro.index.inverted import InvertedIndex
from repro.propagation.ic import IndependentCascade
from repro.propagation.kernels import DEFAULT_RR_KERNEL, check_rr_kernel
from repro.propagation.rrsets import RRSetCollection
from repro.topics.edges import TopicEdgeWeights

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.backend.base import ExecutionBackend
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    ValidationError,
    check_positive,
    check_simplex,
)

__all__ = ["CoverStep", "TargetedKeywordIM", "sample_and_cover"]

#: The one replaceable step of :meth:`TargetedKeywordIM.query`:
#: ``(engine, gamma, roots, k) -> (seeds, n-scaled covered-set spread)`` —
#: sample one RR set per root under γ, then greedy maximum coverage.
CoverStep = Callable[
    ["TargetedKeywordIM", np.ndarray, List[int], int], Tuple[List[int], float]
]


def sample_and_cover(
    engine: "TargetedKeywordIM", gamma: np.ndarray, roots: List[int], k: int
) -> Tuple[List[int], float]:
    """The local :data:`CoverStep`: sample on the engine's execution backend
    (per-chunk spawned sub-streams keep it deterministic per query), then
    cover in-process."""
    collection = RRSetCollection.sample(
        engine.graph,
        engine.edge_weights.edge_probabilities(gamma),
        len(roots),
        seed=engine._rng,
        roots=roots,
        backend=engine.backend,
        kernel=engine.rr_kernel,
    )
    return collection.greedy_max_cover(k)


class TargetedKeywordIM:
    """Keyword IM restricted to a weighted target audience.

    *cover* replaces the sample + greedy-cover step (the cluster
    coordinator passes its shard fan-out); the audience checks, the root
    draw and the spread arithmetic around it are the same either way.
    """

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        inverted_index: Optional[InvertedIndex] = None,
        *,
        num_sets: int = 2000,
        seed: SeedLike = None,
        backend: Optional["ExecutionBackend"] = None,
        rr_kernel: str = DEFAULT_RR_KERNEL,
        cover: Optional[CoverStep] = None,
    ) -> None:
        check_positive(num_sets, "num_sets")
        check_rr_kernel(rr_kernel)
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        self.inverted_index = inverted_index
        self.num_sets = num_sets
        self.backend = backend
        self.rr_kernel = rr_kernel
        self.cover = cover if cover is not None else sample_and_cover
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------
    # Audience derivation
    # ------------------------------------------------------------------

    def audience_for_keywords(self, word_ids: Sequence[int]) -> np.ndarray:
        """Audience weights from the inverted index.

        A user's weight is their total use count of the query keywords —
        the users demonstrably interested in the topic.  Requires the
        engine to have been built with an inverted index.
        """
        if self.inverted_index is None:
            raise ValidationError(
                "no inverted index available; pass an explicit audience"
            )
        if not word_ids:
            raise ValidationError("word_ids must not be empty")
        weights = np.zeros(self.graph.num_nodes, dtype=np.float64)
        for word_id in word_ids:
            for user, count in self.inverted_index.users_of(int(word_id)):
                weights[user] += count
        return weights

    def _check_audience(self, audience: np.ndarray) -> np.ndarray:
        weights = np.asarray(audience, dtype=np.float64)
        if weights.shape != (self.graph.num_nodes,):
            raise ValidationError(
                f"audience must have shape ({self.graph.num_nodes},), "
                f"got {weights.shape}"
            )
        if np.any(weights < 0):
            raise ValidationError("audience weights must be non-negative")
        if weights.sum() <= 0:
            raise ValidationError("audience is empty (all weights zero)")
        return weights

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(
        self,
        gamma: np.ndarray,
        k: int,
        audience: np.ndarray,
        *,
        num_sets: Optional[int] = None,
    ) -> IMResult:
        """Select *k* seeds maximising the audience-weighted spread under γ.

        Returns an :class:`IMResult` whose ``spread`` is in audience-weight
        units (e.g. "expected weighted audience activations").
        """
        gamma = check_simplex(gamma, "gamma")
        check_positive(k, "k")
        weights = self._check_audience(audience)
        num_sets = num_sets if num_sets is not None else self.num_sets
        check_positive(num_sets, "num_sets")

        total_weight = float(weights.sum())
        root_distribution = weights / total_weight
        # Audience-weighted roots are drawn here from the engine stream;
        # the cover step continues from the same stream.
        roots = self._rng.choice(
            self.graph.num_nodes, size=num_sets, p=root_distribution
        )
        seeds, covered_fraction_spread = self.cover(
            self, gamma, [int(root) for root in roots], k
        )
        # greedy_max_cover scales by n; rescale to audience-weight units.
        covered_fraction = covered_fraction_spread / self.graph.num_nodes
        weighted_spread = total_weight * covered_fraction
        return IMResult(
            seeds=seeds,
            spread=weighted_spread,
            marginal_gains=[],
            evaluations=num_sets,
            statistics={
                "audience_total_weight": total_weight,
                "audience_users": float(np.count_nonzero(weights)),
                "covered_fraction": covered_fraction,
                "num_rr_sets": float(num_sets),
            },
        )

    def estimate_weighted_spread(
        self,
        seeds: Sequence[int],
        gamma: np.ndarray,
        audience: np.ndarray,
        *,
        num_samples: int = 500,
        seed: SeedLike = None,
    ) -> float:
        """Monte-Carlo reference for the weighted spread of *seeds*: the
        audience weight of every (world, node) pair *seeds* reach on
        *num_samples* live-edge worlds keyed from *seed*, ÷ *num_samples*."""
        gamma = check_simplex(gamma, "gamma")
        weights = self._check_audience(audience)
        check_positive(num_samples, "num_samples")
        cascade = IndependentCascade(
            self.graph, self.edge_weights.edge_probabilities(gamma)
        )
        reached = cascade.sample_reach(seeds, num_samples, seed)
        return float(weights[reached % self.graph.num_nodes].sum()) / num_samples
