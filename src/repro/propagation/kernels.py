"""Sampling kernels for reverse-reachable sets.

Two interchangeable kernels draw RR sets from an in-CSR graph:

* ``"vectorized"`` (the default) — frontier-batched: per BFS level it
  gathers the in-CSR slices of the *whole* frontier at once (``np.repeat``
  plus fancy indexing over ``in_offsets``/``in_sources``/``in_edge_ids``),
  draws a single coin array for every gathered edge, and marks visits in a
  boolean scratch array.  No per-node Python iteration — the per-sample cost
  is a handful of NumPy calls per BFS level.
* ``"native"`` — chunk-batched compiled C core with a draw-for-draw
  identical pure-NumPy fallback (:mod:`repro.propagation.native`): a whole
  chunk of roots goes into one call that writes the packed ``(nodes,
  offsets)`` payload directly, with coins from a splitmix64 stream both
  implementations consume in the same order.  Always selectable — the
  fallback runs when the optional extension didn't build — and bit-stable
  either way.

Each kernel is self-deterministic — a fixed seed reproduces its results on
any backend at any worker count — but the kernels consume their RNG
streams in different orders (per-level draws vs the splitmix64 side
stream), so their outputs need not match each other sample-for-sample.
They do sample the same distribution: every in-edge of every visited node
is crossed with exactly one fresh coin, which is the lazy live-edge
coupling of the IC model (see the exact world-enumeration tests in
``test_rr_kernels.py`` and ``test_native_kernel.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.graph.digraph import SocialGraph

__all__ = [
    "RR_KERNELS",
    "DEFAULT_RR_KERNEL",
    "check_rr_kernel",
    "gather_csr_slices",
    "reverse_reachable_frontier",
]

#: Recognised kernel names, in presentation order.
RR_KERNELS = ("vectorized", "native")

#: The kernel used when callers don't choose one.
DEFAULT_RR_KERNEL = "vectorized"


def check_rr_kernel(kernel: str) -> str:
    """Validate a kernel name, returning it unchanged."""
    if kernel not in RR_KERNELS:
        raise ValidationError(
            f"rr kernel must be one of {RR_KERNELS}, got {kernel!r}"
        )
    return kernel


def gather_csr_slices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], stops[i])`` for every row ``i``.

    The frontier-batch primitive: given the CSR slice bounds of every
    frontier node, returns one index array addressing all their adjacency
    entries at once, in row order.  Pure arithmetic — no Python loop.
    """
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Shift each row's running position back to its CSR start.
    shift = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]))
    return np.repeat(starts - shift, lengths) + np.arange(total, dtype=np.int64)


def reverse_reachable_frontier(
    graph: "SocialGraph",
    edge_probabilities: np.ndarray,
    root: int,
    rng: np.random.Generator,
    visited: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample one RR set with the frontier-batched vectorized kernel.

    Returns the member nodes as an int64 array: the root first, then each
    BFS level's newly reached nodes in ascending order.  One coin array is
    drawn per level covering every gathered in-edge, so each edge is
    examined at most once per sample — the IC distribution.

    *visited* may supply a reusable all-``False`` boolean scratch array of
    length ``num_nodes``; the caller must clear the returned members from it
    afterwards (``visited[members] = False``).  Bulk samplers use this to
    avoid an O(n) allocation per sample.
    """
    if visited is None:
        visited = np.zeros(graph.num_nodes, dtype=bool)
    in_offsets = graph.in_offsets
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    levels = [frontier]
    while True:
        indices = gather_csr_slices(
            in_offsets[frontier], in_offsets[frontier + 1]
        )
        if indices.size == 0:
            break
        coins = rng.random(indices.size)
        hits = indices[coins < edge_probabilities[graph.in_edge_ids[indices]]]
        if hits.size == 0:
            break
        candidates = graph.in_sources[hits]
        fresh = candidates[~visited[candidates]]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        visited[frontier] = True
        levels.append(frontier)
    if len(levels) == 1:
        return levels[0]
    return np.concatenate(levels)
