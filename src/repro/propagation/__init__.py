"""Influence propagation under the (topic-aware) independent cascade model.

Provides forward Monte-Carlo estimation on fixed, counter-keyed live-edge
worlds (:class:`~repro.propagation.ic.CascadeWorlds`, the one forward
engine), reverse-reachable-set sampling [8] on one counter-keyed kernel (RR set
``j`` is the reverse reach of its root in world ``j`` of the same worlds;
NumPy, with an optional compiled core) with packed flat-array storage, and
the Monte-Carlo spread oracle built on the worlds.
"""

from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.propagation.ic import IndependentCascade
from repro.propagation.kernels import sample_packed_rr_sets
from repro.propagation.native import HAVE_COMPILED, kernel_provenance
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection

__all__ = [
    "IndependentCascade",
    "HAVE_COMPILED",
    "kernel_provenance",
    "PackedRRSets",
    "RRSetCollection",
    "sample_packed_rr_sets",
    "MonteCarloSpreadEstimator",
]
