"""The spread-oracle protocol and the RR-set oracle the baselines take.

:func:`reference.greedy.greedy_im` accepts any :class:`SpreadEstimator`.
Serving evaluates spread only through
:class:`repro.propagation.estimators.MonteCarloSpreadEstimator`;
:class:`RRSetSpreadEstimator` is the RR-set alternative that benchmark E7
and the cross-validation tests compare it with.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.backend.base import ExecutionBackend
from repro.graph.digraph import SocialGraph
from repro.propagation.rrsets import RRSetCollection
from repro.utils.rng import SeedLike

__all__ = ["SpreadEstimator", "RRSetSpreadEstimator"]


class SpreadEstimator(Protocol):
    """Anything that can estimate σ(seeds) for fixed edge probabilities."""

    def spread(self, seeds: Sequence[int]) -> float:
        """Estimated expected spread of *seeds*."""
        ...


class RRSetSpreadEstimator:
    """Estimates spread against a fixed RR-set collection.

    Deterministic given the collection — repeated evaluation of the same
    seed set returns the same number, which keeps lazy-greedy loops stable.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        num_sets: int = 2000,
        seed: SeedLike = None,
        collection: Optional[RRSetCollection] = None,
        backend: Optional["ExecutionBackend"] = None,
    ) -> None:
        if collection is None:
            collection = RRSetCollection.sample(
                graph,
                edge_probabilities,
                num_sets,
                seed,
                backend=backend,
            )
        self.collection = collection

    def spread(self, seeds: Sequence[int]) -> float:
        """RR-set spread estimate."""
        return self.collection.estimate_spread(seeds)
