"""One RR set at a time, on either RR kernel.

:func:`generate_rr_set` samples a single reverse-reachable set from a root
the caller picks and returns it as a Python ``set``.  Serving samples whole
packed batches (:meth:`repro.propagation.rrsets.RRSetCollection.sample`);
the tests use this one-sample form to drive each kernel on hand-built
graphs.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.graph.digraph import SocialGraph
from repro.propagation import native
from repro.propagation.kernels import (
    DEFAULT_RR_KERNEL,
    check_rr_kernel,
    reverse_reachable_frontier,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_node_id

__all__ = ["generate_rr_set"]


def generate_rr_set(
    graph: SocialGraph,
    edge_probabilities: np.ndarray,
    root: int,
    seed: SeedLike = None,
    kernel: str = DEFAULT_RR_KERNEL,
) -> Set[int]:
    """Sample one RR set rooted at *root*.

    Performs a reverse BFS where each in-edge is crossed with its activation
    probability; coins are flipped lazily, so each edge is examined at most
    once per sample, which matches the IC distribution.  *kernel* selects
    the frontier-batched vectorized core (default) or the chunk-batched
    native core (see :mod:`repro.propagation.kernels`).

    A shared :class:`~numpy.random.Generator` passed as *seed* is used
    directly (no per-call re-wrapping), so hot loops can hand one stream
    across many samples at no coercion cost.
    """
    check_node_id(root, graph.num_nodes, "root")
    check_rr_kernel(kernel)
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = as_generator(seed)
    edge_probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if kernel == "native":
        nodes, _offsets = native.sample_rr_chunk(
            graph,
            edge_probabilities,
            1,
            rng,
            np.array([root], dtype=np.int64),
        )
        return set(nodes.tolist())
    members = reverse_reachable_frontier(graph, edge_probabilities, root, rng)
    return set(members.tolist())
