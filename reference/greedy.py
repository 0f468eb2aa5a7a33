"""Lazy (CELF) greedy influence maximization.

The classical ``(1 − 1/e)`` greedy of Kempe et al., accelerated by the CELF
observation: marginal gains are non-increasing across rounds (submodularity),
so a stale cached gain is an upper bound and the queue's best fresh entry can
be accepted without re-evaluating the rest.  This is the "traditional IM
algorithm" whose per-query cost motivates OCTOPUS's online techniques
(Section I) — benchmark E1 runs it as the naive baseline.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from reference.estimators import SpreadEstimator
from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.utils.heap import LazyGreedyQueue
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, check_positive

__all__ = ["greedy_im"]


def greedy_im(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    k: int,
    *,
    estimator: Optional[SpreadEstimator] = None,
    num_samples: int = 200,
    candidates: Optional[Iterable[int]] = None,
    lazy: bool = True,
    seed: SeedLike = None,
) -> IMResult:
    """Select *k* seeds by (lazy) greedy marginal-gain maximization.

    Parameters
    ----------
    estimator:
        Spread oracle; defaults to Monte-Carlo estimation on
        *num_samples* fixed live-edge worlds.
    candidates:
        Restrict selection to these nodes (defaults to all nodes).  The
        best-effort framework passes pruned candidate pools here.
    lazy:
        Disable to run plain greedy (every candidate re-evaluated every
        round) — used by tests to validate CELF equivalence.
    """
    check_positive(k, "k")
    if estimator is None:
        estimator = MonteCarloSpreadEstimator(
            graph, edge_probabilities, num_samples=num_samples, seed=seed
        )
    if candidates is None:
        pool = list(range(graph.num_nodes))
    else:
        pool = sorted(set(int(node) for node in candidates))
        for node in pool:
            if not 0 <= node < graph.num_nodes:
                raise ValidationError(f"candidate {node} out of range")
    if not pool:
        raise ValidationError("candidate pool is empty")

    evaluations = 0
    seeds: list = []
    gains: list = []
    current_spread = 0.0

    if lazy:
        queue: LazyGreedyQueue = LazyGreedyQueue()
        for node in pool:
            gain = estimator.spread([node])
            evaluations += 1
            queue.push(node, gain)
        queue.mark_all_stale()  # singleton spreads are bounds for round 2+
        while len(seeds) < k and len(queue) > 0:
            node, gain, fresh = queue.pop_best()
            if fresh or not seeds:
                # Round 1: singleton spread equals the marginal gain on the
                # empty set, so the stale entry is already exact.
                seeds.append(node)
                gains.append(gain)
                current_spread += gain
                queue.mark_all_stale()
            else:
                refreshed = estimator.spread(seeds + [node]) - current_spread
                evaluations += 1
                queue.push(node, max(refreshed, 0.0))
    else:
        remaining = set(pool)
        while len(seeds) < k and remaining:
            best_node, best_gain = -1, -np.inf
            for node in sorted(remaining):
                gain = estimator.spread(seeds + [node]) - current_spread
                evaluations += 1
                if gain > best_gain:
                    best_node, best_gain = node, gain
            seeds.append(best_node)
            gains.append(best_gain)
            current_spread += best_gain
            remaining.discard(best_node)

    final_spread = estimator.spread(seeds)
    evaluations += 1
    return IMResult(
        seeds=seeds,
        spread=final_spread,
        marginal_gains=gains,
        evaluations=evaluations,
        statistics={"lazy": float(lazy)},
    )
