"""Execution-backend abstraction for parallel compute.

OCTOPUS's heavy offline work — RR-set sampling, topic-sample precomputation,
sketch construction — consists of independent, identically-distributed
tasks, so it parallelises embarrassingly well.  An
:class:`ExecutionBackend` owns a worker pool (or no pool at all) and exposes
one primitive, :meth:`~ExecutionBackend.map_chunks`: apply a function to a
sequence of task chunks and return the results *in input order*.

Determinism is the design constraint.  Work is split into fixed-size chunks
whose count depends only on the problem size — never on the worker count —
and each chunk receives its own RNG stream spawned from the root seed (the
``SeedSequence.spawn`` protocol, the same device
:func:`repro.utils.rng.spawn_generators` uses).  The same seed therefore
produces bit-identical results on :class:`~repro.backend.serial.SerialBackend`,
:class:`~repro.backend.pools.ThreadPoolBackend` and
:class:`~repro.backend.pools.ProcessPoolBackend`, at any worker count — the
property the service layer's caching and replay guarantees rest on.  The
guarantee is per sampling *kernel* (vectorized or native; see
:mod:`repro.propagation.kernels`): each kernel is self-deterministic, but
the two draw in different orders and need not match each other.

:meth:`~ExecutionBackend.sample_rr_sets_packed` builds on ``map_chunks`` to
give every backend the chunked RR-sampling strategy shared by
:class:`~repro.propagation.rrsets.RRSetCollection`, the targeted-IM engine
and the RR-set spread oracle.  Chunk workers return packed ``(nodes,
offsets)`` arrays — two flat buffers per chunk — rather than pickled lists
of Python sets, and process pools adopt the graph and edge-probability
arrays once per worker (see
:class:`~repro.backend.pools.ProcessPoolBackend`) instead of shipping them
with every chunk.
"""

from __future__ import annotations

import abc
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.propagation.kernels import DEFAULT_RR_KERNEL, check_rr_kernel
from repro.propagation.packed import PackedRRSets
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "DEFAULT_RR_CHUNK_SIZE",
    "ExecutionBackend",
    "default_worker_count",
    "rr_chunk_plan",
    "seed_to_sequence",
]

# Fixed chunk granularity for RR sampling.  Part of the determinism
# contract: results depend on the chunk size, so it must never be derived
# from the worker count.
DEFAULT_RR_CHUNK_SIZE = 256


def default_worker_count() -> int:
    """Worker count to use when the caller doesn't specify one."""
    return max(os.cpu_count() or 1, 1)


def rr_chunk_plan(
    num_sets: int,
    chunk_size: int,
    sequence: np.random.SeedSequence,
    root_cycle: Optional[List[int]] = None,
) -> List[Tuple[int, np.random.SeedSequence, Optional[List[int]]]]:
    """The deterministic chunk decomposition of one RR-sampling call.

    Returns ``(count, seed_sequence, roots)`` per chunk.  This is *the*
    determinism seam of the backend layer: the chunk count and the
    per-chunk spawned streams depend only on ``(num_sets, chunk_size,
    sequence)`` — never on worker or shard counts — so any scheduler
    (a worker pool mapping chunks, or a cluster coordinator handing
    contiguous chunk ranges to shard processes) reproduces the exact
    sample batch as long as it concatenates chunk results in plan order.
    With *root_cycle*, set ``i`` of the batch is rooted at
    ``root_cycle[i % len(root_cycle)]`` wherever the chunk bounds fall.
    """
    counts = [
        min(chunk_size, num_sets - start)
        for start in range(0, num_sets, chunk_size)
    ]
    children = sequence.spawn(len(counts))
    plan: List[Tuple[int, np.random.SeedSequence, Optional[List[int]]]] = []
    offset = 0
    for count, child in zip(counts, children):
        chunk_roots = None
        if root_cycle is not None:
            chunk_roots = [
                root_cycle[(offset + index) % len(root_cycle)]
                for index in range(count)
            ]
        plan.append((count, child, chunk_roots))
        offset += count
    return plan


def seed_to_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Collapse any seed form into a spawnable :class:`SeedSequence`.

    Passing a live :class:`~numpy.random.Generator` consumes one draw from
    it (mirroring :func:`repro.utils.rng.spawn_generators`), so sharing a
    stream across sequential parallel stages remains reproducible.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


# ----------------------------------------------------------------------
# Shared sampling state (graph + edge probabilities) for process pools
# ----------------------------------------------------------------------
#
# In the parent, :meth:`ProcessPoolBackend._sampling_payload` registers the
# arrays here under an integer token and ships only the token per chunk;
# workers adopt the registry once — by fork inheritance where available,
# and in every case through the pool initializer — and resolve tokens
# locally.  In-memory backends never touch the registry: their chunk
# payloads carry the object references directly.

_SHARED_SAMPLING_STATE: Dict[int, Tuple[Any, np.ndarray]] = {}
_NEXT_SHARED_TOKEN = 0
# Tokens are allocated by backends that hold only their own instance lock,
# so the counter and registry insert need module-level protection.
_SHARED_STATE_LOCK = threading.Lock()


def _publish_sampling_state(graph: Any, edge_probabilities: np.ndarray) -> int:
    """Register ``(graph, edge_probabilities)`` in-parent; returns a token."""
    global _NEXT_SHARED_TOKEN
    with _SHARED_STATE_LOCK:
        token = _NEXT_SHARED_TOKEN
        _NEXT_SHARED_TOKEN += 1
        _SHARED_SAMPLING_STATE[token] = (graph, edge_probabilities)
    return token


def _discard_sampling_state(token: int) -> None:
    """Drop a registered payload (eviction; parent side only)."""
    _SHARED_SAMPLING_STATE.pop(token, None)


def _install_sampling_state(entries: Dict[int, Tuple[Any, np.ndarray]]) -> None:
    """Pool initializer: adopt the parent's registry once per worker."""
    _SHARED_SAMPLING_STATE.update(entries)


def _resolve_sampling_payload(payload: Any) -> Tuple[Any, np.ndarray]:
    """Turn a chunk payload (token or direct pair) into ``(graph, probs)``."""
    if isinstance(payload, int):
        try:
            return _SHARED_SAMPLING_STATE[payload]
        except KeyError:  # pragma: no cover — defensive; pools restart on publish
            raise RuntimeError(
                f"worker has no shared sampling state for token {payload}"
            ) from None
    return payload


def _sample_rr_chunk(
    task: Tuple[Any, int, np.random.SeedSequence, Optional[List[int]], str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample one chunk of RR sets from its private spawned stream.

    Module-level (not a closure) so :class:`ProcessPoolBackend` can pickle
    it.  Roots are either pre-assigned (weighted/fixed-root sampling) or
    drawn uniformly from the chunk's own stream.  Returns the packed
    ``(nodes, offsets)`` arrays — flat buffers, cheap to pickle back.
    """
    from repro.propagation.rrsets import sample_packed_rr_sets

    payload, count, seed_sequence, roots, kernel = task
    graph, edge_probabilities = _resolve_sampling_payload(payload)
    rng = np.random.default_rng(seed_sequence)
    return sample_packed_rr_sets(
        graph, edge_probabilities, count, rng, roots, kernel
    )


class ExecutionBackend(abc.ABC):
    """How chunked work executes: serially, on threads, or on processes.

    Backends are context managers; pooled implementations release their
    workers on ``close()`` / ``__exit__``.
    """

    #: Short identifier (``serial`` / ``threads`` / ``processes``).
    name: str = "abstract"

    #: How chunk payloads travel back from workers: ``"inline"`` when no
    #: process boundary exists (serial / threads — results are passed by
    #: reference), ``"shm"`` / ``"pickle"`` for process-crossing backends
    #: (see :mod:`repro.backend.shm`).  Pure observability — surfaced as
    #: ``execution.payload_transport`` in stats snapshots, never an
    #: answer change.
    payload_transport: str = "inline"

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Number of workers results are computed on (1 for serial)."""

    @abc.abstractmethod
    def map_chunks(
        self, function: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Apply *function* to every chunk, returning results in order.

        *function* must be a module-level callable and every chunk must be
        picklable when the backend crosses process boundaries.
        """

    def close(self) -> None:
        """Release pooled resources (no-op for unpooled backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

    # ------------------------------------------------------------------
    # Shared chunked-sampling strategy
    # ------------------------------------------------------------------

    def _sampling_payload(self, graph: Any, edge_probabilities: np.ndarray) -> Any:
        """The per-chunk payload carrying the sampling inputs.

        In-memory backends pass the object references straight through;
        :class:`~repro.backend.pools.ProcessPoolBackend` overrides this to
        publish the arrays once and ship an integer token instead.
        """
        return (graph, edge_probabilities)

    def sample_rr_sets_packed(
        self,
        graph: Any,
        edge_probabilities: np.ndarray,
        num_sets: int,
        seed: SeedLike = None,
        *,
        roots: Optional[Sequence[int]] = None,
        chunk_size: int = DEFAULT_RR_CHUNK_SIZE,
        kernel: str = DEFAULT_RR_KERNEL,
    ) -> PackedRRSets:
        """Sample *num_sets* RR sets in deterministic fixed-size chunks.

        With explicit *roots*, set ``i`` is rooted at
        ``roots[i % len(roots)]``.  Chunk count and per-chunk streams
        depend only on ``(num_sets, chunk_size, seed)``; results are
        deterministic per *kernel*.
        """
        check_positive(num_sets, "num_sets")
        check_positive(chunk_size, "chunk_size")
        check_rr_kernel(kernel)
        if graph.num_nodes == 0:
            raise ValidationError("cannot sample RR sets on an empty graph")
        root_cycle: Optional[List[int]] = None
        if roots is not None:
            root_cycle = [int(root) for root in roots]
            if not root_cycle:
                raise ValidationError("roots must not be empty when given")
            for root in root_cycle:
                if not 0 <= root < graph.num_nodes:
                    raise ValidationError(
                        f"root must be in [0, {graph.num_nodes}), got {root}"
                    )
        sequence = seed_to_sequence(seed)
        payload = self._sampling_payload(
            graph, np.asarray(edge_probabilities, dtype=np.float64)
        )
        tasks = [
            (payload, count, child, chunk_roots, kernel)
            for count, child, chunk_roots in rr_chunk_plan(
                num_sets, chunk_size, sequence, root_cycle
            )
        ]
        return self._collect_packed(graph.num_nodes, tasks)

    def _collect_packed(
        self, num_nodes: int, tasks: Sequence[Tuple]
    ) -> PackedRRSets:
        """Run the chunk tasks and assemble the packed batch.

        The transport seam: in-memory backends map the plain chunk
        function and concatenate the returned arrays;
        :class:`~repro.backend.pools.ProcessPoolBackend` overrides this to
        route chunk payloads through the shared-memory arena
        (:mod:`repro.backend.shm`) so only descriptors cross the pipe.
        Either way the assembled batch is identical byte for byte —
        transport is never allowed to change results.
        """
        chunks = self.map_chunks(_sample_rr_chunk, tasks)
        return PackedRRSets.from_chunks(num_nodes, chunks)
