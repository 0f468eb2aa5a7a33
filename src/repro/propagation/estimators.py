"""The Monte-Carlo spread oracle.

Best-effort keyword IM evaluates exact marginal gains through
:class:`MonteCarloSpreadEstimator`: counts over fixed live-edge worlds,
explored incrementally along the seed prefix.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.ic import IndependentCascade, _check_seeds
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive

__all__ = ["MonteCarloSpreadEstimator"]

#: The memo pool holds one int64 pair per ``_POOL_SHARE`` (world, node)
#: marks: R·n/8 pairs, the same bytes as the marks themselves.
_POOL_SHARE = 8


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
    it.  It also remembers every candidate's marginal reach
    ``M_v = R(v) ∖ R(S)`` on the prefix ``S`` of its evaluation.  Prefixes
    only grow until a rebuild, and reach sets are closed under live edges,
    so on a later prefix ``S' ⊇ S`` the marginal reach is ``M_v`` minus the
    pairs ``R(S')`` keeps: a re-evaluation, or extending the prefix by a
    remembered node, is one gather and no cascade.  The memo lives in a
    pool of R·n/8 pairs allocated here; when the pool is full, or the
    prefix is rebuilt, it is forgotten, and a forgotten candidate is simply
    explored again.  Counts are exact integers, so every call order, and
    every pool size, gives bit-identical values.

    ``explores`` and ``memo_hits`` count the cascades walked and the
    marginal reaches recalled from the memo.
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
        self.explores = 0
        self.memo_hits = 0
        self._prefix: Tuple[int, ...] = ()
        self._prefix_reach = 0
        # Candidate v's remembered pairs are _pool[_starts[v]:][:_counts[v]]
        # (-1: not remembered); _pool[:_used] is taken.
        self._pool = np.empty(
            num_samples * graph.num_nodes // _POOL_SHARE, dtype=np.int64
        )
        self._used = 0
        self._starts = np.zeros(graph.num_nodes, dtype=np.int64)
        self._counts = np.full(graph.num_nodes, -1, dtype=np.int64)

    def spread(self, seeds: Sequence[int]) -> float:
        """Monte-Carlo spread estimate."""
        *prefix, candidate = _check_seeds(self.worlds.graph, seeds)
        self._extend_prefix(tuple(prefix))
        if self._counts[candidate] >= 0:
            gain = self._recall(candidate).size
        else:
            pairs = self.worlds.reach([candidate])
            self.explores += 1
            self._remember(candidate, pairs)
            gain = pairs.size
        return (self._prefix_reach + gain) / self.num_samples

    def _extend_prefix(self, prefix: Tuple[int, ...]) -> None:
        """Make the kept reach that of *prefix*, reusing what is kept.

        Reach sets are closed under live edges, so the missing nodes can
        join in any order: remembered ones are kept first, one at a time,
        the rest explored together on top of them.
        """
        if prefix[: len(self._prefix)] != self._prefix:
            self.worlds.clear()
            self._prefix, self._prefix_reach = (), 0
            self._forget()
        missing = prefix[len(self._prefix):]
        unknown = []
        for node in missing:
            if self._counts[node] >= 0:
                pairs = self._recall(node)
                self.worlds.keep(pairs)
                self._prefix_reach += pairs.size
            else:
                unknown.append(node)
        if unknown:
            self._prefix_reach += self.worlds.explore(unknown)
            self.explores += 1
        self._prefix = prefix

    def _recall(self, node: int) -> np.ndarray:
        """*node*'s marginal reach on the kept prefix, from the memo, which
        shrinks to it in place."""
        start = self._starts[node]
        pairs = self.worlds.unkept(self._pool[start:start + self._counts[node]])
        self._pool[start:start + pairs.size] = pairs
        self._counts[node] = pairs.size
        self.memo_hits += 1
        return pairs

    def _remember(self, node: int, pairs: np.ndarray) -> None:
        """Store *node*'s marginal reach, forgetting the memo first when
        the pool is full (a reach larger than the pool is not stored)."""
        if self._used + pairs.size > self._pool.size:
            self._forget()
            if pairs.size > self._pool.size:
                return
        self._pool[self._used:self._used + pairs.size] = pairs
        self._starts[node] = self._used
        self._counts[node] = pairs.size
        self._used += pairs.size

    def _forget(self) -> None:
        """Forget every remembered reach."""
        self._counts.fill(-1)
        self._used = 0
