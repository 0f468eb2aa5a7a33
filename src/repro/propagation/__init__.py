"""Influence propagation under the (topic-aware) independent cascade model.

Provides forward Monte-Carlo estimation on fixed, counter-keyed live-edge
worlds (:class:`~repro.propagation.ic.CascadeWorlds`, the one forward
engine), reverse-reachable-set sampling [8] on pluggable kernels
(frontier-batched vectorized / chunk-batched native with an optional
compiled core) with packed flat-array storage, and the Monte-Carlo spread
oracle built on the worlds.
"""

from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.propagation.ic import IndependentCascade
from repro.propagation.kernels import (
    DEFAULT_RR_KERNEL,
    RR_KERNELS,
    check_rr_kernel,
    reverse_reachable_frontier,
)
from repro.propagation.native import (
    HAVE_COMPILED,
    kernel_provenance,
    sample_rr_chunk,
)
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection, sample_packed_rr_sets

__all__ = [
    "IndependentCascade",
    "RR_KERNELS",
    "DEFAULT_RR_KERNEL",
    "HAVE_COMPILED",
    "check_rr_kernel",
    "kernel_provenance",
    "reverse_reachable_frontier",
    "sample_rr_chunk",
    "PackedRRSets",
    "RRSetCollection",
    "sample_packed_rr_sets",
    "MonteCarloSpreadEstimator",
]
