"""The topic-sample-based algorithm of §II-C.

"We devise a topic-sample-based algorithm that pre-computes seed sets for
some offline-sampled topic distributions.  Then, we use the samples to better
estimate upper and lower bounds for pruning instead of directly answering the
query, which also achieves theoretical guarantees."

Offline, the index draws topic distributions from a sparse Dirichlet prior
(real keyword queries concentrate on few topics), solves IM for each with RR
sets, and stores the seed sets with their spreads.  Online, a query γ is
matched to its nearest sample γ_s:

* when the *coupling gap* ``Λ(γ, γ_s) = n · Σ_z |γ_z − γ_{s,z}| · T_z``
  (with ``T_z = Σ_e pp^z_e``; see below) is small relative to the cached
  spread, the cached seed set is returned directly — its spread under γ is
  within Λ of the cached value, and OPT_γ is within Λ of OPT_{γ_s}, giving
  the answer a ``(1 − 1/e − ε)·OPT_γ − 2Λ`` guarantee;
* otherwise the cached seed set *warm-starts* the best-effort framework,
  pruning every candidate whose upper bound cannot beat the warm start.

Coupling gap derivation: sample one live-edge world per query pair by shared
uniform thresholds; the worlds differ only if some edge's liveness differs,
which has probability ``≤ Σ_e |p_e(γ) − p_e(γ_s)| ≤ Σ_z |γ_z − γ_{s,z}| T_z``
(union bound); when the worlds coincide the spreads are equal, otherwise
they differ by at most ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.backend import ExecutionBackend, resolve_backend, seed_to_sequence
from repro.core.besteffort import BestEffortKeywordIM
from repro.im.base import IMResult
from repro.im.ris import ris_im
from repro.propagation.kernels import DEFAULT_RR_KERNEL, check_rr_kernel
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection, sample_packed_rr_sets
from repro.topics.edges import TopicEdgeWeights
from repro.topics.priors import sample_topic_distributions
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_positive,
    check_simplex,
)

__all__ = ["TopicSample", "TopicSampleIndex"]


@dataclass
class TopicSample:
    """One precomputed sample: its distribution, seeds and spread per k."""

    gamma: np.ndarray
    seeds_by_k: List[List[int]]
    spreads_by_k: List[float]

    def seeds(self, k: int) -> List[int]:
        """Cached seed set of size ≤ *k* (prefix of the greedy order)."""
        index = min(k, len(self.seeds_by_k)) - 1
        return list(self.seeds_by_k[index])

    def spread(self, k: int) -> float:
        """Cached spread of the size-*k* (or largest available) seed set."""
        index = min(k, len(self.spreads_by_k)) - 1
        return self.spreads_by_k[index]


def _precompute_sample(task) -> TopicSample:
    """Backend chunk worker: one topic sample's IM seeds and prefix spreads.

    One sample is one backend task: like an RR chunk worker, it draws both
    of its RR batches with the per-chunk core straight from its own spawned
    stream, which is what makes the partitioned build order-independent.
    """
    edge_weights, gamma, max_k, num_rr_sets, seed_sequence, kernel = task
    rng = np.random.default_rng(seed_sequence)
    graph = edge_weights.graph
    probabilities = edge_weights.edge_probabilities(gamma)

    def draw(count: int) -> RRSetCollection:
        nodes, offsets = sample_packed_rr_sets(
            graph, probabilities, count, rng, None, kernel
        )
        return RRSetCollection(graph, PackedRRSets(graph.num_nodes, nodes, offsets))

    result = ris_im(graph, probabilities, max_k, collection=draw(num_rr_sets))
    # RR greedy returns nested prefixes; record each prefix's spread from
    # the same collection for consistency.
    collection = draw(max(num_rr_sets // 2, 1))
    seeds_by_k: List[List[int]] = []
    spreads_by_k: List[float] = []
    for k in range(1, len(result.seeds) + 1):
        prefix = result.seeds[:k]
        seeds_by_k.append(prefix)
        spreads_by_k.append(collection.estimate_spread(prefix))
    if not seeds_by_k:
        raise ValidationError("sample precomputation selected no seeds")
    return TopicSample(
        gamma=gamma, seeds_by_k=seeds_by_k, spreads_by_k=spreads_by_k
    )


class TopicSampleIndex:
    """Offline-sampled topic distributions with precomputed seed sets."""

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        num_samples: int = 32,
        max_k: int = 20,
        *,
        concentration: float = 0.3,
        num_rr_sets: int = 4000,
        seed: SeedLike = None,
        backend: Optional[ExecutionBackend] = None,
        rr_kernel: str = DEFAULT_RR_KERNEL,
    ) -> None:
        check_positive(num_samples, "num_samples")
        check_positive(max_k, "max_k")
        check_rr_kernel(rr_kernel)
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        self.max_k = max_k
        rng = as_generator(seed)
        gammas = sample_topic_distributions(
            edge_weights.num_topics, num_samples, concentration, rng
        )
        # Per-topic total edge probability mass, the T_z of the coupling gap.
        self.topic_mass = edge_weights.weights.sum(axis=0)
        # Partitioned build: one spawned stream per sample, so the result is
        # identical for every backend at every worker count.
        children = seed_to_sequence(rng).spawn(num_samples)
        tasks = [
            (self.edge_weights, gamma, self.max_k, num_rr_sets, child, rr_kernel)
            for gamma, child in zip(gammas, children)
        ]
        self.samples: List[TopicSample] = resolve_backend(backend).map_chunks(
            _precompute_sample, tasks
        )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def coupling_gap(self, gamma: np.ndarray, sample: TopicSample) -> float:
        """Λ(γ, γ_s): upper bound on |σ_γ(S) − σ_{γ_s}(S)| for any S."""
        gamma = check_simplex(gamma, "gamma")
        delta = np.abs(gamma - sample.gamma)
        gap = float(self.graph.num_nodes * (delta * self.topic_mass).sum())
        return min(gap, float(self.graph.num_nodes))

    def nearest(self, gamma: np.ndarray) -> Tuple[TopicSample, float]:
        """The sample closest to γ in L1 distance, with that distance."""
        gamma = check_simplex(gamma, "gamma")
        best: Optional[TopicSample] = None
        best_distance = float("inf")
        for sample in self.samples:
            distance = float(np.abs(gamma - sample.gamma).sum())
            if distance < best_distance:
                best, best_distance = sample, distance
        assert best is not None  # num_samples >= 1 enforced in __init__
        return best, best_distance

    def query(
        self,
        gamma: np.ndarray,
        k: int,
        *,
        best_effort: Optional[BestEffortKeywordIM] = None,
        gap_tolerance: float = 0.2,
    ) -> IMResult:
        """Answer a keyword IM query through the sample index.

        When the nearest sample's L1 distance to γ is within
        ``gap_tolerance``, the cached seeds are returned immediately
        (statistics flag ``answered_from_sample=1``; the rigorous-but-loose
        coupling gap is reported alongside, giving the
        ``±Λ`` spread certificate).  Otherwise the query falls through to
        *best_effort* (required in that case) with the cached seeds as warm
        start — "using the samples to better estimate upper and lower
        bounds for pruning instead of directly answering the query".
        """
        gamma = check_simplex(gamma, "gamma")
        check_positive(k, "k")
        check_in_range(gap_tolerance, 0.0, 2.0, "gap_tolerance")
        if k > self.max_k:
            raise ValidationError(
                f"k={k} exceeds the precomputed max_k={self.max_k}"
            )
        sample, distance = self.nearest(gamma)
        cached_spread = sample.spread(k)
        coupling_gap = self.coupling_gap(gamma, sample)
        if distance <= gap_tolerance:
            return IMResult(
                seeds=sample.seeds(k),
                spread=cached_spread,
                marginal_gains=[],
                evaluations=0,
                statistics={
                    "answered_from_sample": 1.0,
                    "l1_distance": distance,
                    "coupling_gap": coupling_gap,
                    "spread_lower_bound": max(cached_spread - coupling_gap, 0.0),
                    "spread_upper_bound": cached_spread + coupling_gap,
                },
            )
        if best_effort is None:
            raise ValidationError(
                "query gap exceeds tolerance and no best-effort fallback given"
            )
        result = best_effort.query(gamma, k, warm_start=sample.seeds(k))
        result.statistics["answered_from_sample"] = 0.0
        result.statistics["l1_distance"] = distance
        result.statistics["coupling_gap"] = coupling_gap
        return result
