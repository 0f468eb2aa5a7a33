"""Reverse-reachable (RR) set sampling — reference [8] (Tang et al., TIM).

An RR set for a uniformly random root ``v`` is the set of nodes that reach
``v`` in a sampled live-edge world.  The fraction of RR sets a seed set
intersects, scaled by ``n``, is an unbiased estimate of its influence
spread, and greedy maximum coverage over RR sets yields the standard
``(1 − 1/e − ε)`` IM approximation.  OCTOPUS uses RR machinery both as the
query-time IM baseline and, with fixed thresholds, inside the influencer
index of Section II-D.

Sampling runs on the one counter-keyed kernel
(:mod:`repro.propagation.kernels`): a batch is a pure function of its key
and roots, whatever the chunking.  Batches are stored packed
(:class:`~repro.propagation.packed.PackedRRSets`), which makes every
estimator below a flat array operation; greedy max-cover's inner
cover-update step runs compiled when the extension is loaded, with
byte-identical selections either way.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation.kernels import apply_cover_seed, gather_csr_slices
from repro.propagation.packed import PackedRRSets
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, check_positive

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.backend.base import ExecutionBackend

__all__ = ["RRSetCollection"]


class RRSetCollection:
    """A batch of RR sets with the inverted node→sets index.

    Stored packed (flat ``nodes`` + ``offsets`` arrays with a CSR
    node→set-membership index — see
    :class:`~repro.propagation.packed.PackedRRSets`), so spread estimation
    and greedy maximum-coverage seed selection are array operations.
    """

    def __init__(
        self,
        graph: SocialGraph,
        rr_sets: Union[PackedRRSets, Sequence[Iterable[int]]],
    ) -> None:
        if isinstance(rr_sets, PackedRRSets):
            packed = rr_sets
        else:
            packed = PackedRRSets.from_sets(graph.num_nodes, rr_sets)
        if packed.num_sets == 0:
            raise ValidationError("RRSetCollection requires at least one RR set")
        self.graph = graph
        self.packed = packed
        self._materialized: Optional[List[Set[int]]] = None

    @property
    def rr_sets(self) -> List[Set[int]]:
        """The legacy ``List[Set[int]]`` view (materialised lazily)."""
        if self._materialized is None:
            self._materialized = self.packed.to_sets()
        return self._materialized

    @classmethod
    def sample(
        cls,
        graph: SocialGraph,
        edge_probabilities: np.ndarray,
        num_sets: int,
        seed: SeedLike = None,
        roots: Optional[Sequence[int]] = None,
        *,
        backend: Optional["ExecutionBackend"] = None,
        chunk_size: Optional[int] = None,
    ) -> "RRSetCollection":
        """Sample *num_sets* RR sets with uniform (or given) roots.

        The batch's key and roots come from *seed*
        (:meth:`ExecutionBackend.sample_rr_sets_packed`), so for a fixed
        seed the result is identical on every *backend* at every worker
        count and *chunk_size*; ``backend=None`` runs the chunks inline on
        a :class:`~repro.backend.SerialBackend`.
        """
        # local: repro.backend imports this package
        from repro.backend import resolve_backend

        packed = resolve_backend(backend).sample_rr_sets_packed(
            graph,
            edge_probabilities,
            num_sets,
            seed,
            roots=roots,
            chunk_size=chunk_size,
        )
        return cls(graph, packed)

    def __len__(self) -> int:
        return self.packed.num_sets

    def _covered_set_count(self, seeds: Sequence[int]) -> int:
        """Number of RR sets intersecting *seeds* (array gather + unique)."""
        if len(seeds) == 0:
            return 0
        member_offsets, member_sets = self.packed.membership()
        seed_array = np.unique(np.asarray(list(seeds), dtype=np.int64))
        seed_array = seed_array[
            (seed_array >= 0) & (seed_array < self.graph.num_nodes)
        ]
        if seed_array.size == 0:
            return 0
        indices = gather_csr_slices(
            member_offsets[seed_array], member_offsets[seed_array + 1]
        )
        return int(np.unique(member_sets[indices]).size)

    def estimate_spread(self, seeds: Sequence[int]) -> float:
        """Unbiased spread estimate: ``n · (covered sets / total sets)``."""
        covered = self._covered_set_count(seeds)
        return self.graph.num_nodes * covered / self.packed.num_sets

    def greedy_max_cover(self, k: int) -> Tuple[List[int], float]:
        """Greedy maximum coverage: the TIM/IMM node-selection phase.

        Runs in O(Σ|R|) total: each round takes the max of the per-node
        coverage array (ties break by first appearance in the packed batch
        — exactly the membership-dict insertion order of the historical
        implementation, so selections reproduce earlier releases) and
        subtracts the member counts of the newly covered sets, so no set's
        members are walked more than once.  The cover-update inner step
        (:func:`repro.propagation.kernels.apply_cover_seed`) runs on the
        compiled extension when loaded and on the ``np.bincount`` path
        otherwise — same exact integer arithmetic, so the selection
        sequence never depends on which one ran.  Returns the seed list
        and the estimated spread of the full set.
        """
        check_positive(k, "k")
        packed = self.packed
        num_nodes = self.graph.num_nodes
        member_offsets, member_sets = packed.membership()
        first_seen = packed.first_occurrence()
        coverage = packed.coverage_counts().astype(np.int64)
        covered = np.zeros(packed.num_sets, dtype=bool)
        seeds: List[int] = []
        for _ in range(min(k, num_nodes)):
            best_cover = int(coverage.max())
            if best_cover <= 0:
                break
            candidates = np.flatnonzero(coverage == best_cover)
            best = int(candidates[np.argmin(first_seen[candidates])])
            seeds.append(best)
            apply_cover_seed(
                best,
                member_offsets,
                member_sets,
                covered,
                packed.offsets,
                packed.nodes,
                coverage,
            )
        spread = num_nodes * float(covered.sum()) / packed.num_sets
        return seeds, spread
