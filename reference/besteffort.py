"""The paper's best-effort framework for online keyword-based IM (§II-C).

Reference only: the served system answers a topic-sample miss with RIS on
the query's own γ (:func:`repro.core.topic_samples.ris_seed_prefixes`).
This search stays for benchmarks E1–E3 and the tests that pin the paper's
pruning claim.

"We introduce a best-effort framework that estimates an upper bound of the
influence spread for each user and then preferentially computes the exact
influence spread for the users with larger upper bounds, so as to prune
insignificant users."

The framework is a CELF loop whose queue is *initialised with upper bounds*
instead of exact singleton spreads: a candidate is only handed to the spread
oracle when its bound (or a previously computed gain) floats to the top of
the queue.  The oracle is
:class:`~repro.propagation.estimators.MonteCarloSpreadEstimator` on
``num_samples`` fixed live-edge worlds per query, and the search evaluates
only a small prefix of the user ranking — the pruning-power statistic
benchmark E2 reports.

What the pruning guarantees.  The bound estimator is sound for the true
spread σ, not for the oracle's sampled estimate σ̂.  A candidate whose σ̂
sampling noise lifts above its own bound can be passed over for a rival
that unpruned CELF over the same σ̂ would rank below it, so the selected
seeds are close to, but not always those of, lazy greedy over the oracle.
On a 150-node preferential-attachment graph (seed 7, weighted-cascade
weights seed 8, engine seed 0) with the pure-topic query γ = (1, 0, 0, 0),
the pruned search reaches σ̂ = 3.52 / 10.22 / 16.38 / 30.01 at
k = 1 / 3 / 5 / 10 where unpruned CELF reaches 3.53 / 10.36 / 16.52 / 30.15;
four other queries on the same graph give identical spreads.

Optionally a *warm start* (e.g. a topic-sample seed set, §II-C's
topic-sample-based algorithm) supplies a feasible lower bound used to drop
candidates whose upper bound cannot beat the per-seed average of the warm
start — the "use the samples to better estimate upper and lower bounds for
pruning" device of [3].
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.im.base import IMResult
from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.topics.edges import TopicEdgeWeights
from repro.utils.heap import LazyGreedyQueue
from repro.utils.rng import SeedLike, base_entropy, query_rng
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_positive,
    check_simplex,
)

__all__ = ["BestEffortKeywordIM"]


class BestEffortKeywordIM:
    """Online keyword IM: bound-driven lazy greedy over a Monte-Carlo oracle.

    Parameters
    ----------
    edge_weights:
        The topic-aware edge probabilities.
    bound_estimator:
        Any :class:`~reference.bounds.UpperBoundEstimator`.
    num_samples:
        Live-edge worlds per query of the Monte-Carlo oracle.
    seed:
        Engine seed; each query's worlds are keyed by it and by the query's
        edge probabilities, so the oracle is deterministic within a query.
    """

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        bound_estimator,
        *,
        num_samples: int = 100,
        seed: SeedLike = None,
    ) -> None:
        check_positive(num_samples, "num_samples")
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        self.bound_estimator = bound_estimator
        self.num_samples = num_samples
        self._entropy = base_entropy(seed)
        self._oracle_lock = threading.Lock()
        self._oracle_explores = 0
        self._oracle_memo_hits = 0

    def oracle_counters(self) -> Dict[str, float]:
        """Cumulative oracle work over every query so far: cascades walked
        (``oracle_explores``) and marginal reaches recalled from the memo
        (``oracle_memo_hits``).  Observability only: answers and their
        ``statistics`` never depend on them."""
        with self._oracle_lock:
            return {
                "oracle_explores": float(self._oracle_explores),
                "oracle_memo_hits": float(self._oracle_memo_hits),
            }

    # ------------------------------------------------------------------

    def query(
        self,
        gamma: np.ndarray,
        k: int,
        *,
        warm_start: Optional[Sequence[int]] = None,
        prune_ratio: float = 1.0,
    ) -> IMResult:
        """Answer a keyword IM query for topic distribution γ.

        Parameters
        ----------
        warm_start:
            A feasible seed set (e.g. from the topic-sample index).  Its
            spread under γ becomes a lower bound ``L``; candidates with
            upper bound below ``prune_ratio · L / k`` are dropped before any
            exact evaluation.
        prune_ratio:
            Aggressiveness of warm-start pruning in ``[0, 1]``; 1 means
            "prune anything that cannot beat the warm start's per-seed
            average".

        Returns an :class:`~repro.im.base.IMResult` whose ``statistics``
        record ``exact_evaluations``, ``candidates_considered`` and
        ``pruned_by_warm_start``.
        """
        gamma = check_simplex(gamma, "gamma")
        check_positive(k, "k")
        check_in_range(prune_ratio, 0.0, 1.0, "prune_ratio")
        probabilities = self.edge_weights.edge_probabilities(gamma)
        oracle = MonteCarloSpreadEstimator(
            self.graph,
            probabilities,
            num_samples=self.num_samples,
            seed=query_rng(self._entropy, probabilities),
        )

        bounds = np.asarray(self.bound_estimator.bounds(gamma), dtype=np.float64)
        if bounds.shape != (self.graph.num_nodes,):
            raise ValidationError(
                "bound estimator returned wrong shape "
                f"{bounds.shape}, expected ({self.graph.num_nodes},)"
            )

        pruned_by_warm_start = 0
        threshold = -np.inf
        warm_spread = 0.0
        has_warm_start = warm_start is not None and len(warm_start) > 0
        if has_warm_start:
            warm_spread = oracle.spread(list(warm_start))
            threshold = prune_ratio * warm_spread / k

        order = np.argsort(-bounds, kind="stable")

        queue: LazyGreedyQueue = LazyGreedyQueue()
        for node in order:
            bound = float(bounds[node])
            if bound < threshold:
                # Bounds are sorted; everything after is also below threshold.
                pruned_by_warm_start += len(order) - len(queue)
                break
            queue.push(int(node), bound)
        queue.mark_all_stale()

        seeds: List[int] = []
        gains: List[float] = []
        current_spread = 0.0
        exact_evaluations = 1 if has_warm_start else 0
        while len(seeds) < k and len(queue) > 0:
            node, gain, fresh = queue.pop_best()
            if fresh:
                seeds.append(node)
                gains.append(gain)
                current_spread += gain
                queue.mark_all_stale()
            else:
                exact = oracle.spread(seeds + [node]) - current_spread
                exact_evaluations += 1
                queue.push(node, max(exact, 0.0))

        final_spread = oracle.spread(seeds) if seeds else 0.0
        exact_evaluations += 1 if seeds else 0
        with self._oracle_lock:
            self._oracle_explores += oracle.explores
            self._oracle_memo_hits += oracle.memo_hits
        statistics = {
            "exact_evaluations": float(exact_evaluations),
            "candidates_considered": float(len(order)),
            "pruned_by_warm_start": float(pruned_by_warm_start),
            "warm_start_spread": float(warm_spread),
        }
        return IMResult(
            seeds=seeds,
            spread=final_spread,
            marginal_gains=gains,
            evaluations=exact_evaluations,
            statistics=statistics,
        )
