"""Pluggable spread estimators.

The IM algorithms and the best-effort keyword-IM framework accept any object
implementing the :class:`SpreadEstimator` protocol, so the exact-evaluation
strategy (Monte Carlo vs RR sets) is a configuration choice — one of the
trade-offs benchmark E2/E7 measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.ic import IndependentCascade
from repro.propagation.kernels import DEFAULT_RR_KERNEL
from repro.propagation.rrsets import RRSetCollection
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.backend.base import ExecutionBackend

__all__ = ["SpreadEstimator", "MonteCarloSpreadEstimator", "RRSetSpreadEstimator"]


class SpreadEstimator(Protocol):
    """Anything that can estimate σ(seeds) for fixed edge probabilities."""

    def spread(self, seeds: Sequence[int]) -> float:
        """Estimated expected spread of *seeds*."""
        ...


class MonteCarloSpreadEstimator:
    """Estimates spread by forward IC simulation.

    A fresh child generator is derived per seed-set evaluation from the
    estimator's stream, so evaluations are reproducible given construction
    order.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        num_samples: int = 200,
        seed: SeedLike = None,
    ) -> None:
        check_positive(num_samples, "num_samples")
        self._cascade = IndependentCascade(graph, edge_probabilities)
        self.num_samples = num_samples
        self._rng = as_generator(seed)

    def spread(self, seeds: Sequence[int]) -> float:
        """Monte-Carlo spread estimate."""
        return self._cascade.estimate_spread(seeds, self.num_samples, self._rng)


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
        kernel: str = DEFAULT_RR_KERNEL,
    ) -> None:
        if collection is None:
            collection = RRSetCollection.sample(
                graph,
                edge_probabilities,
                num_sets,
                seed,
                backend=backend,
                kernel=kernel,
            )
        self.collection = collection

    def spread(self, seeds: Sequence[int]) -> float:
        """RR-set spread estimate."""
        return self.collection.estimate_spread(seeds)
