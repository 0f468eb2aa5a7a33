"""Reverse-influence-sampling IM (the TIM/IMM family, reference [8]).

Samples reverse-reachable sets and selects seeds by greedy maximum coverage.
With ``θ = O((k ln n + ln 1/δ) n / (ε² · OPT))`` sets the result is a
``(1 − 1/e − ε)`` approximation with probability ``1 − δ``; the helper
:func:`recommended_num_sets` applies the conservative ``OPT ≥ k`` bound so
callers get a principled default without the full IMM estimation phase.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.propagation.rrsets import RRSetCollection
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range, check_positive

__all__ = ["ris_im", "recommended_num_sets"]


def recommended_num_sets(
    num_nodes: int,
    k: int,
    epsilon: float = 0.3,
    delta: Optional[float] = None,
    max_sets: int = 200_000,
) -> int:
    """Number of RR sets for an ``(1 − 1/e − ε)`` guarantee (conservative).

    Uses ``θ = (8 + 2ε)(k ln n + ln(2/δ)) / (ε² · OPT)`` scaled by ``n`` with
    ``OPT ≥ k``, capped at *max_sets* to stay laptop-friendly (the repro
    calibration note: billion-edge sampling needs C extensions).
    """
    check_positive(num_nodes, "num_nodes")
    check_positive(k, "k")
    check_in_range(epsilon, 0.0, 1.0, "epsilon", inclusive=False)
    if delta is None:
        delta = 1.0 / num_nodes
    check_in_range(delta, 0.0, 1.0, "delta", inclusive=False)
    numerator = (8 + 2 * epsilon) * (
        k * math.log(max(num_nodes, 2)) + math.log(2.0 / delta)
    )
    theta = numerator * num_nodes / (epsilon**2 * max(k, 1))
    return int(min(max(theta, 1.0), max_sets))


def ris_im(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    k: int,
    *,
    num_sets: Optional[int] = None,
    epsilon: float = 0.3,
    seed: SeedLike = None,
    collection: Optional[RRSetCollection] = None,
) -> IMResult:
    """Select *k* seeds via RR-set maximum coverage.

    Passing an existing *collection* skips sampling — the topic-sample index
    reuses collections across offline precomputation this way.  Otherwise
    the batch's key and uniform roots are drawn from *seed*.
    """
    check_positive(k, "k")
    if collection is None:
        if num_sets is None:
            num_sets = recommended_num_sets(graph.num_nodes, k, epsilon)
        collection = RRSetCollection.sample(
            graph, edge_probabilities, num_sets, seed
        )
    seeds, spread = collection.greedy_max_cover(k)
    return IMResult(
        seeds=seeds,
        spread=spread,
        marginal_gains=[],
        evaluations=len(collection),
        statistics={"num_rr_sets": float(len(collection))},
    )
