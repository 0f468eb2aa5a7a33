"""The best-effort framework for online keyword-based IM (§II-C).

"We introduce a best-effort framework that estimates an upper bound of the
influence spread for each user and then preferentially computes the exact
influence spread for the users with larger upper bounds, so as to prune
insignificant users."

The framework is a CELF loop whose queue is *initialised with upper bounds*
instead of exact singleton spreads: a candidate is only handed to the exact
spread oracle when its bound (or a previously computed exact gain) floats to
the top of the queue.  With a sound bound estimator the selected seeds match
what lazy greedy over the oracle would select, while evaluating only a small
prefix of the user ranking — the pruning-power statistic benchmark E2
reports.

Optionally a *warm start* (e.g. a topic-sample seed set, §II-C's
topic-sample-based algorithm) supplies a feasible lower bound used to drop
candidates whose upper bound cannot beat the per-seed average of the warm
start — the "use the samples to better estimate upper and lower bounds for
pruning" device of [3].
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.propagation.estimators import (
    MonteCarloSpreadEstimator,
    RRSetSpreadEstimator,
    SpreadEstimator,
)
from repro.propagation.kernels import DEFAULT_RR_KERNEL
from repro.topics.edges import TopicEdgeWeights
from repro.utils.heap import LazyGreedyQueue
from repro.utils.rng import SeedLike
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_positive,
    check_simplex,
)

__all__ = ["BestEffortKeywordIM"]

OracleFactory = Callable[[SocialGraph, np.ndarray], SpreadEstimator]


def _base_entropy(seed: SeedLike) -> int:
    """Collapse any seed form into one integer entropy value."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, dtype=np.uint64)[0])
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1)[0])
    return int(seed)


def _query_rng(entropy: int, probabilities: np.ndarray) -> np.random.Generator:
    """Per-query generator keyed by (engine seed, query probabilities).

    Identical queries draw identical randomness regardless of what ran
    before them, so answers are reproducible: a cached response, a replayed
    log entry and a batched duplicate all equal a fresh computation.
    """
    digest = hashlib.blake2b(
        np.ascontiguousarray(probabilities, dtype=np.float64).tobytes(),
        digest_size=8,
    ).digest()
    return np.random.default_rng(
        np.random.SeedSequence([entropy, int.from_bytes(digest, "little")])
    )


def _monte_carlo_factory(num_samples: int, seed: SeedLike) -> OracleFactory:
    entropy = _base_entropy(seed)

    def factory(graph: SocialGraph, probabilities: np.ndarray) -> SpreadEstimator:
        return MonteCarloSpreadEstimator(
            graph,
            probabilities,
            num_samples=num_samples,
            seed=_query_rng(entropy, probabilities),
        )

    return factory


def _rr_set_factory(
    num_sets: int, seed: SeedLike, backend=None, kernel: str = DEFAULT_RR_KERNEL
) -> OracleFactory:
    entropy = _base_entropy(seed)

    def factory(graph: SocialGraph, probabilities: np.ndarray) -> SpreadEstimator:
        return RRSetSpreadEstimator(
            graph,
            probabilities,
            num_sets=num_sets,
            seed=_query_rng(entropy, probabilities),
            backend=backend,
            kernel=kernel,
        )

    return factory


class BestEffortKeywordIM:
    """Online keyword IM: bound-driven lazy greedy with a pluggable oracle.

    Parameters
    ----------
    edge_weights:
        The topic-aware edge probabilities.
    bound_estimator:
        Any :class:`~repro.core.bounds.UpperBoundEstimator`.
    oracle:
        ``"mc"`` (Monte-Carlo on fixed live-edge worlds per query,
        default), ``"ris"`` (fixed RR-set collection per query) — both
        deterministic within the query — or a custom factory
        ``(graph, edge_probabilities) -> SpreadEstimator``.
    num_samples / num_sets:
        Budget of the built-in oracles.
    rr_kernel:
        Sampling kernel of the ``"ris"`` oracle (vectorized / native).
    candidate_limit:
        Evaluate at most this many distinct candidates per query (best-effort
        degradation for hard latency budgets); ``None`` = unlimited.
    """

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        bound_estimator,
        *,
        oracle: "str | OracleFactory" = "mc",
        num_samples: int = 100,
        num_sets: int = 2000,
        candidate_limit: Optional[int] = None,
        seed: SeedLike = None,
        backend=None,
        rr_kernel: str = DEFAULT_RR_KERNEL,
    ) -> None:
        check_positive(num_samples, "num_samples")
        check_positive(num_sets, "num_sets")
        if candidate_limit is not None:
            check_positive(candidate_limit, "candidate_limit")
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        self.bound_estimator = bound_estimator
        self.candidate_limit = candidate_limit
        if oracle == "mc":
            self._oracle_factory: OracleFactory = _monte_carlo_factory(
                num_samples, seed
            )
        elif oracle == "ris":
            self._oracle_factory = _rr_set_factory(
                num_sets, seed, backend, rr_kernel
            )
        elif callable(oracle):
            self._oracle_factory = oracle
        else:
            raise ValidationError(
                f"oracle must be 'mc', 'ris' or a factory, got {oracle!r}"
            )

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
        oracle = self._oracle_factory(self.graph, probabilities)

        bounds = np.asarray(self.bound_estimator.bounds(gamma), dtype=np.float64)
        if bounds.shape != (self.graph.num_nodes,):
            raise ValidationError(
                "bound estimator returned wrong shape "
                f"{bounds.shape}, expected ({self.graph.num_nodes},)"
            )

        pruned_by_warm_start = 0
        threshold = -np.inf
        warm_spread = 0.0
        if warm_start is not None and len(warm_start) > 0:
            warm_spread = oracle.spread(list(warm_start))
            threshold = prune_ratio * warm_spread / k

        order = np.argsort(-bounds, kind="stable")
        if self.candidate_limit is not None:
            order = order[: self.candidate_limit]

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
        exact_evaluations = 1 if warm_start else 0
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
