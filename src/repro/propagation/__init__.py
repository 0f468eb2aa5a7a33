"""Influence propagation under the (topic-aware) independent cascade model.

Provides forward Monte-Carlo simulation, fixed live-edge possible worlds
(shared-threshold coupling across topic distributions), reverse-reachable-set
sampling [8] on pluggable kernels (frontier-batched vectorized /
chunk-batched native with an optional compiled core) with packed flat-array
storage, and the spread estimators built on them.
"""

from repro.propagation.estimators import (
    MonteCarloSpreadEstimator,
    RRSetSpreadEstimator,
    SpreadEstimator,
)
from repro.propagation.ic import IndependentCascade, simulate_cascade
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
from repro.propagation.rrsets import (
    RRSetCollection,
    generate_rr_set,
    sample_packed_rr_sets,
)
from repro.propagation.worlds import LiveEdgeWorld, WorldEnsemble

__all__ = [
    "IndependentCascade",
    "simulate_cascade",
    "LiveEdgeWorld",
    "WorldEnsemble",
    "RR_KERNELS",
    "DEFAULT_RR_KERNEL",
    "HAVE_COMPILED",
    "check_rr_kernel",
    "kernel_provenance",
    "reverse_reachable_frontier",
    "sample_rr_chunk",
    "PackedRRSets",
    "RRSetCollection",
    "generate_rr_set",
    "sample_packed_rr_sets",
    "SpreadEstimator",
    "MonteCarloSpreadEstimator",
    "RRSetSpreadEstimator",
]
