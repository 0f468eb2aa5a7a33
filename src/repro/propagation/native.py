"""The ``"native"`` RR-sampling kernel: compiled core + pure-Python twin.

The second sampling kernel (next to ``vectorized``) exists in two
draw-for-draw identical implementations:

* the **compiled** path — :mod:`repro.propagation._rrnative`, an optional C
  extension (built by ``python setup.py build_ext --inplace`` or a
  ``pip install`` with a working compiler) whose chunk-batched entry point
  takes a whole chunk of roots plus the in-CSR arrays and emits the packed
  ``(nodes, offsets)`` payload directly, amortising call overhead across
  the chunk and releasing the GIL for the duration;
* the **fallback** path — pure NumPy, frontier-batched like the
  ``vectorized`` kernel, always importable.

Identity between the two is not statistical but *bitwise*: both consume the
same splitmix64 coin stream in the same order (one coin per gathered
in-edge per BFS level, frontier iterated in ascending node order, each
node's in-CSR slice in order).  splitmix64 is counter-based — output ``i``
is ``mix(seed + i·γ)`` — so the NumPy twin vectorises a whole level's coins
with pure uint64 array arithmetic while the C core advances the same state
sequentially; the doubles that come out are bit-equal.  ``native`` is
therefore always selectable and seed-stable whether or not the extension
built, and which path ran is pure observability
(:func:`kernel_provenance`), never an answer change.

Seeding ties the kernel into the backend determinism contract: each chunk's
:class:`numpy.random.Generator` contributes the chunk's roots (one bulk
``integers`` draw when not pre-assigned) and one uint64 stream seed, so the
chunk plan (:func:`repro.backend.base.rr_chunk_plan`) keys everything and a
fixed seed is bit-stable across serial/threads/processes/cluster at any
worker or shard count.  Like the other kernels, ``native`` samples the
exact IC RR distribution but draws in its own order, so it need not match
``vectorized`` sample-for-sample.

The module also hosts the greedy max-cover **cover-update** inner step
(mark the chosen seed's uncovered RR sets covered, decrement the coverage
counts of their members) used by
:meth:`~repro.propagation.rrsets.RRSetCollection.greedy_max_cover`.  The
compiled and NumPy updates perform the same exact integer arithmetic, so
argmax and tie-break sequences — and with them ``deterministic_form()``
bytes — are unchanged whichever one runs.

Set ``REPRO_NATIVE=0`` to force the pure-Python path even when the
extension is importable (CI uses this to prove the fallback passes the
same suite).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.propagation.kernels import gather_csr_slices
from repro.utils.env import env_switch

__all__ = [
    "HAVE_COMPILED",
    "SplitMix64Stream",
    "apply_cover_seed",
    "kernel_provenance",
    "sample_rr_chunk",
    "splitmix64",
    "use_compiled",
]

try:  # pragma: no cover — exercised only where the extension built
    from repro.propagation import _rrnative
except ImportError:  # pragma: no cover — the mandatory-fallback leg
    _rrnative = None

#: Whether the compiled extension imported (the fallback still works).
HAVE_COMPILED = _rrnative is not None

#: ``REPRO_NATIVE=0`` (or ``off`` / ``fallback``) forces the NumPy twin.
#: ``None`` means "consult the environment at call time"; tests may pin
#: this attribute to ``True``/``False`` to force a path directly.
_FORCED_FALLBACK: Optional[bool] = None

_FALLBACK_VALUES = ("0", "off", "fallback")
_COMPILED_VALUES = ("", "1", "on", "compiled", "native")


def _forced_fallback() -> bool:
    """Whether ``REPRO_NATIVE`` forces the NumPy twin right now.

    An unrecognized value (``REPRO_NATIVE=2``) raises a
    :class:`~repro.utils.validation.ValidationError` at the first kernel
    dispatch instead of silently selecting the compiled path.
    """
    if _FORCED_FALLBACK is not None:
        return _FORCED_FALLBACK
    return not env_switch(
        "REPRO_NATIVE", on=_COMPILED_VALUES, off=_FALLBACK_VALUES
    )

_EMPTY = np.empty(0, dtype=np.int64)

# splitmix64 constants (Steele, Lea & Flood 2014), as uint64 scalars so the
# NumPy arithmetic below wraps exactly like the C core's.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


def use_compiled() -> bool:
    """Whether calls will run on the compiled extension right now.

    ``REPRO_NATIVE`` is validated first, so a typo raises whether or not
    the extension happens to be built.
    """
    return not _forced_fallback() and HAVE_COMPILED


def kernel_provenance() -> str:
    """``"native-compiled"`` or ``"native-fallback"`` (observability)."""
    return "native-compiled" if use_compiled() else "native-fallback"


def splitmix64(key: int, counters: np.ndarray) -> np.ndarray:
    """Counter-based splitmix64: output ``mix(key + c·γ)`` for each counter.

    *counters* must be a uint64 array; it is consumed (the result is
    computed in its buffer).  Pure wrapping uint64 array arithmetic (which
    never warns on overflow), so any batching of the counters yields the
    same outputs.
    """
    z = counters
    z *= _GAMMA
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class SplitMix64Stream:
    """Counter-based splitmix64 stream with a ``Generator``-like ``random``.

    Output ``i`` (1-based) is ``mix(seed + i·γ)`` — the same sequence the
    C core produces by advancing its state sequentially — so ``random(n)``
    is one vectorised uint64 pass, and interleaving call sizes differently
    (per level here, per edge in C) cannot change the draws.
    """

    __slots__ = ("_seed", "_drawn")

    def __init__(self, seed: int) -> None:
        self._seed = np.uint64(seed)
        self._drawn = 0

    def random(self, count: int) -> np.ndarray:
        """The next *count* doubles in ``[0, 1)`` (53-bit mantissas)."""
        if count == 0:
            return np.empty(0, dtype=np.float64)
        indices = np.arange(
            self._drawn + 1, self._drawn + count + 1, dtype=np.uint64
        )
        self._drawn += count
        z = splitmix64(self._seed, indices)
        return (z >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE


# ----------------------------------------------------------------------
# Chunk-batched sampling
# ----------------------------------------------------------------------


def sample_rr_chunk(
    graph,
    edge_probabilities: np.ndarray,
    count: int,
    rng: np.random.Generator,
    roots: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample one whole chunk of RR sets with the native kernel.

    *rng* (the chunk's spawned stream) contributes exactly two draws: the
    chunk's roots (one bulk ``integers`` call, skipped when *roots* are
    pre-assigned) and one uint64 seeding the splitmix64 coin stream shared
    by every sample in the chunk.  Returns the packed ``(nodes, offsets)``
    chunk payload (:meth:`~repro.propagation.packed.PackedRRSets
    .chunk_payload` form) — the compiled core writes it directly.
    """
    if roots is None:
        roots = rng.integers(0, graph.num_nodes, size=count, dtype=np.int64)
    else:
        roots = np.ascontiguousarray(roots, dtype=np.int64)
    seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    edge_probabilities = np.ascontiguousarray(
        edge_probabilities, dtype=np.float64
    )
    if use_compiled():
        return _sample_chunk_compiled(
            graph.num_nodes,
            graph.in_offsets,
            graph.in_sources,
            graph.in_edge_ids,
            edge_probabilities,
            roots,
            seed,
        )
    return _sample_chunk_fallback(
        graph.num_nodes,
        graph.in_offsets,
        graph.in_sources,
        graph.in_edge_ids,
        edge_probabilities,
        roots,
        seed,
    )


def _sample_chunk_compiled(
    num_nodes: int,
    in_offsets: np.ndarray,
    in_sources: np.ndarray,
    in_edge_ids: np.ndarray,
    edge_probabilities: np.ndarray,
    roots: np.ndarray,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One C call for the whole chunk; buffers re-wrapped without copy."""
    nodes_buf, offsets_buf = _rrnative.sample_chunk(
        int(num_nodes),
        np.ascontiguousarray(in_offsets, dtype=np.int64),
        np.ascontiguousarray(in_sources, dtype=np.int64),
        np.ascontiguousarray(in_edge_ids, dtype=np.int64),
        edge_probabilities,
        roots,
        seed,
    )
    return (
        np.frombuffer(nodes_buf, dtype=np.int64),
        np.frombuffer(offsets_buf, dtype=np.int64),
    )


def _sample_chunk_fallback(
    num_nodes: int,
    in_offsets: np.ndarray,
    in_sources: np.ndarray,
    in_edge_ids: np.ndarray,
    edge_probabilities: np.ndarray,
    roots: np.ndarray,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The NumPy twin: frontier-batched, same coin stream, same bytes."""
    stream = SplitMix64Stream(seed)
    visited = np.zeros(num_nodes, dtype=bool)
    arrays: List[np.ndarray] = []
    for root in roots:
        members = _frontier_members(
            in_offsets,
            in_sources,
            in_edge_ids,
            edge_probabilities,
            int(root),
            stream,
            visited,
        )
        visited[members] = False
        arrays.append(members)
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(array) for array in arrays], out=offsets[1:])
    nodes = np.concatenate(arrays) if arrays else _EMPTY
    return nodes, offsets


def _frontier_members(
    in_offsets: np.ndarray,
    in_sources: np.ndarray,
    in_edge_ids: np.ndarray,
    edge_probabilities: np.ndarray,
    root: int,
    stream: SplitMix64Stream,
    visited: np.ndarray,
) -> np.ndarray:
    """One RR set, frontier-batched, coins from the splitmix64 stream.

    The traversal is the ``vectorized`` kernel's (root first, then each
    level's new nodes ascending; one coin per gathered in-edge per level)
    — only the coin source differs, which is what makes the compiled core
    reproducible here: it examines the same edges in the same order and
    pulls the same doubles off the same stream.
    """
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    levels = [frontier]
    while True:
        indices = gather_csr_slices(
            in_offsets[frontier], in_offsets[frontier + 1]
        )
        if indices.size == 0:
            break
        coins = stream.random(indices.size)
        hits = indices[coins < edge_probabilities[in_edge_ids[indices]]]
        if hits.size == 0:
            break
        candidates = in_sources[hits]
        fresh = candidates[~visited[candidates]]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        visited[frontier] = True
        levels.append(frontier)
    if len(levels) == 1:
        return levels[0]
    return np.concatenate(levels)


# ----------------------------------------------------------------------
# Greedy cover-update inner step
# ----------------------------------------------------------------------


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
    if use_compiled():
        return int(
            _rrnative.cover_update(
                int(seed_node),
                member_offsets,
                member_sets,
                covered,
                set_offsets,
                set_nodes,
                coverage,
            )
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
