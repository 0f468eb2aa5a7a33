"""The one reverse-reachable-set kernel.

**The coin.**  In-edge slot ``s`` carries out-CSR edge ``e =
in_edge_ids[s]``; the edge is live in RR set ``j`` iff the 53-bit coin
``splitmix64(key, j·E + e) >> 11`` falls below ``p_e·2⁵³``.  That is
:class:`~repro.propagation.ic.CascadeWorlds`' coin: RR set ``j`` of a batch
keyed by ``key`` is exactly the set of nodes that reach its root in world
``j`` of ``CascadeWorlds(key)``.  Every (set, edge) pair owns one coin that
does not depend on the order of traversal, so each set is distributed as
the IC RR distribution, and a batch is a pure function of ``(key, first
set index, roots)``: any chunking, backend or shard split of the index
range yields the same bytes.

**The sampler** (:func:`sample_packed_rr_sets`) advances every set of a
pass together, one BFS level per NumPy round: gather the in-edges of every
``(set, node)`` frontier pair → one coin per gathered edge → dedup the live
sources against the pairs already reached.  A pass holds at most
``_PASS_SETS`` sets and gathers at most ``_PASS_EDGES`` edges per round, so
the temporaries stay a few arrays of 8-byte words whatever the batch size.
Members come out in canonical order — per set, BFS level, then ascending
node — which greedy tie-breaking (first occurrence) reads.

The optional compiled core (:mod:`repro.propagation.native`) walks one set
at a time with the same coins and writes the same canonical order, so
which one runs is pure observability, never an answer change.  The greedy
max-cover inner step (:func:`apply_cover_seed`) dispatches the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.propagation import native
from repro.propagation.native import splitmix64

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.graph.digraph import SocialGraph

__all__ = [
    "apply_cover_seed",
    "gather_csr_slices",
    "sample_packed_rr_sets",
]

#: Sets advanced together per pass, and in-edges gathered per round of a
#: pass: they bound the sampler's temporaries.
_PASS_SETS = 1024
_PASS_EDGES = 1 << 15

_EMPTY = np.empty(0, dtype=np.int64)


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


def sample_packed_rr_sets(
    graph: "SocialGraph",
    edge_probabilities: np.ndarray,
    key: int,
    first: int,
    roots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """RR sets ``first, first + 1, …`` of the batch keyed by *key*.

    Set ``first + i`` is rooted at ``roots[i]``.  Returns the packed
    ``(nodes, offsets)`` payload
    (:meth:`~repro.propagation.packed.PackedRRSets.chunk_payload` form),
    from the compiled core when it is loaded and from the NumPy sampler
    otherwise — the same bytes either way.
    """
    roots = np.ascontiguousarray(roots, dtype=np.int64)
    probabilities = np.ascontiguousarray(edge_probabilities, dtype=np.float64)
    if native.use_compiled():
        return native.sample_chunk(graph, probabilities, key, first, roots)
    if roots.size == 0:
        return _EMPTY, np.zeros(1, dtype=np.int64)
    chunks = [
        _sample_pass(graph, probabilities, key, first + start,
                     roots[start:start + _PASS_SETS])
        for start in range(0, roots.size, _PASS_SETS)
    ]
    nodes = np.concatenate([chunk[0] for chunk in chunks])
    counts = np.concatenate([chunk[1] for chunk in chunks])
    offsets = np.zeros(roots.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return nodes, offsets


def _sample_pass(
    graph: "SocialGraph",
    probabilities: np.ndarray,
    key: int,
    first: int,
    roots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One pass: the members of sets ``first + b`` (rooted at
    ``roots[b]``) in canonical order, and each set's member count.

    Pair ``b·n + v`` is node ``v`` of the pass's set ``b``; every level is
    a sorted array of fresh pairs, and ``reached`` the sorted union so far.
    """
    num_nodes = graph.num_nodes
    pairs = np.arange(roots.size, dtype=np.int64) * num_nodes + roots
    levels = [pairs]
    reached = pairs
    while True:
        live = _live_sources(graph, probabilities, key, first, pairs)
        if live.size == 0:
            break
        # Sort + adjacent-difference dedup (cheaper than np.unique here),
        # then drop the pairs already reached.
        live.sort()
        fresh = np.empty(live.size, dtype=bool)
        fresh[0] = True
        np.not_equal(live[1:], live[:-1], out=fresh[1:])
        positions = np.searchsorted(reached, live)
        fresh &= reached[np.minimum(positions, reached.size - 1)] != live
        pairs = live[fresh]
        if pairs.size == 0:
            break
        # Both sides are sorted, so inserting keeps ``reached`` sorted.
        reached = np.insert(reached, positions[fresh], pairs)
        levels.append(pairs)
    members = np.concatenate(levels) if len(levels) > 1 else levels[0]
    # A stable sort by set keeps each set's level order, and within a
    # level its ascending nodes.
    sets = members // num_nodes
    order = np.argsort(sets, kind="stable")
    members = members[order]
    members -= sets[order] * num_nodes
    return members, np.bincount(sets, minlength=roots.size)


def _live_sources(
    graph: "SocialGraph",
    probabilities: np.ndarray,
    key: int,
    first: int,
    pairs: np.ndarray,
) -> np.ndarray:
    """The pairs one live in-edge upstream of *pairs* (with repeats),
    gathered in rounds of at most ``_PASS_EDGES`` edges."""
    num_nodes = graph.num_nodes
    in_offsets = graph.in_offsets
    sets, nodes = np.divmod(pairs, num_nodes)
    starts = in_offsets[nodes]
    degrees = in_offsets[nodes + 1] - starts
    ends = np.cumsum(degrees)
    if ends[-1] == 0:
        return _EMPTY
    found: List[np.ndarray] = []
    low = 0
    while low < pairs.size:
        base = ends[low - 1] if low else 0
        high = int(np.searchsorted(ends, base + _PASS_EDGES, side="right"))
        high = max(high, low + 1)
        counts = degrees[low:high]
        slots = np.arange(base, ends[high - 1], dtype=np.int64)
        slots += np.repeat(starts[low:high] - (ends[low:high] - counts), counts)
        owners = np.repeat(sets[low:high], counts)
        edges = graph.in_edge_ids[slots]
        coins = owners + first
        coins *= graph.num_edges
        coins += edges
        coins = splitmix64(key, coins.view(np.uint64))
        coins >>= np.uint64(11)
        # The coin u·2⁻⁵³ < p  ⟺  u < p·2⁵³, both exact in float64.
        limits = probabilities[edges]
        limits *= 2.0**53
        live = np.flatnonzero(coins < limits)
        del coins, limits
        found.append(owners[live] * num_nodes + graph.in_sources[slots[live]])
        low = high
    return found[0] if len(found) == 1 else np.concatenate(found)


def apply_cover_seed(
    seed_node: int,
    member_offsets: np.ndarray,
    member_sets: np.ndarray,
    covered: np.ndarray,
    set_offsets: np.ndarray,
    set_nodes: np.ndarray,
    coverage: np.ndarray,
) -> int:
    """Fold one selected seed into ``covered``/``coverage`` in place.

    Marks each of *seed_node*'s not-yet-covered RR sets covered and
    decrements the coverage count of every member of those sets — the
    greedy max-cover inner loop, over the packed batch
    (``set_offsets``/``set_nodes``) and its CSR membership index
    (``member_offsets``/``member_sets``).  Returns the number of newly
    covered sets.  Compiled and NumPy paths perform the same exact integer
    arithmetic, so selection order never depends on which one ran.
    """
    if native.use_compiled():
        return native.cover_update(
            seed_node,
            member_offsets,
            member_sets,
            covered,
            set_offsets,
            set_nodes,
            coverage,
        )
    candidate_sets = member_sets[
        member_offsets[seed_node]:member_offsets[seed_node + 1]
    ]
    new_sets = candidate_sets[~covered[candidate_sets]]
    if new_sets.size == 0:
        return 0
    covered[new_sets] = True
    member_indices = gather_csr_slices(
        set_offsets[new_sets], set_offsets[new_sets + 1]
    )
    coverage -= np.bincount(
        set_nodes[member_indices], minlength=len(coverage)
    )
    return int(new_sets.size)
