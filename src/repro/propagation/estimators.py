"""The Monte-Carlo spread oracle.

Best-effort keyword IM evaluates exact marginal gains through
:class:`MonteCarloSpreadEstimator`: counts over fixed live-edge worlds,
explored incrementally along the seed prefix.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.ic import IndependentCascade, _check_seeds
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive

__all__ = ["MonteCarloSpreadEstimator"]


class MonteCarloSpreadEstimator:
    """Estimates spread by forward IC simulation on fixed worlds.

    One key drawn from *seed* fixes ``num_samples`` live-edge worlds
    (:class:`~repro.propagation.ic.CascadeWorlds`), and every evaluation
    counts the (world, node) pairs its seed set reaches on those same
    worlds ÷ ``num_samples``.  Common random numbers make repeated
    evaluations agree and keep σ̂ exactly monotone and submodular, so the
    marginal gains CELF compares carry no sampling noise between calls.

    Evaluation is incremental.  The estimator keeps the reach of the seed
    prefix it last extended, so ``spread(prefix + [v])`` explores only
    v's marginal cascade; a call that does not extend the prefix rebuilds
    it.  Besides the prefix it remembers one marginal reach, the last
    candidate's, which becomes the prefix's when that candidate is
    selected.  Counts are exact integers, so every call order gives
    bit-identical values.
    """

    def __init__(
        self,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        num_samples: int = 200,
        seed: SeedLike = None,
    ) -> None:
        check_positive(num_samples, "num_samples")  # before the probabilities
        self.worlds = IndependentCascade(graph, edge_probabilities).worlds(
            num_samples, seed
        )
        self.num_samples = num_samples
        self._prefix: Tuple[int, ...] = ()
        self._prefix_reach = 0
        # (candidate, marginal reach) of the last evaluation; its pairs
        # are the worlds' tentative marks.
        self._last: Optional[Tuple[int, int]] = None

    def spread(self, seeds: Sequence[int]) -> float:
        """Monte-Carlo spread estimate."""
        *prefix, candidate = _check_seeds(self.worlds.graph, seeds)
        self._extend_prefix(tuple(prefix))
        if self._last is None or self._last[0] != candidate:
            if self._last is not None:
                self.worlds.drop()
            self._last = (candidate, self.worlds.explore([candidate]))
        return (self._prefix_reach + self._last[1]) / self.num_samples

    def _extend_prefix(self, prefix: Tuple[int, ...]) -> None:
        """Make the kept reach that of *prefix*, reusing what is kept.

        Reach sets are closed under live edges, so the missing nodes can
        join in any order: the last candidate's marginal reach is kept
        first, the rest explored together on top of it.
        """
        if prefix[: len(self._prefix)] != self._prefix:
            self.worlds.clear()
            self._prefix, self._prefix_reach, self._last = (), 0, None
        missing = prefix[len(self._prefix):]
        if not missing:
            return
        if self._last is not None and self._last[0] in missing:
            self.worlds.commit()
            self._prefix_reach += self._last[1]
            missing = tuple(node for node in missing if node != self._last[0])
        elif self._last is not None:
            self.worlds.drop()
        if missing:
            self._prefix_reach += self.worlds.explore(missing, keep=True)
        self._prefix, self._last = prefix, None
