"""Execution-backend abstraction for parallel compute.

OCTOPUS's heavy offline work — RR-set sampling, topic-sample precomputation,
sketch construction — consists of independent, identically-distributed
tasks, so it parallelises embarrassingly well.  An
:class:`ExecutionBackend` owns a worker pool (or no pool at all) and exposes
one primitive, :meth:`~ExecutionBackend.map_chunks`: apply a function to a
sequence of task chunks and return the results *in input order*.

Determinism is the design constraint.  An RR batch is a pure function of
its key, drawn once from the call's seed, and its roots (uniform roots are
drawn once per batch from the same generator): RR set ``j`` is the
reverse reach of its root under coins keyed by ``(key, j)`` (see
:mod:`repro.propagation.kernels`).  Chunks are index ranges of that batch,
so the same seed produces bit-identical results on
:class:`~repro.backend.serial.SerialBackend`,
:class:`~repro.backend.pools.ThreadPoolBackend` and
:class:`~repro.backend.pools.ProcessPoolBackend`, at any worker count and
any chunk size, whether the compiled core or NumPy samples — the property
the service layer's caching and replay guarantees rest on.

:meth:`~ExecutionBackend.sample_rr_sets_packed` builds on ``map_chunks`` to
give every backend the chunked RR-sampling strategy shared by
:class:`~repro.propagation.rrsets.RRSetCollection`, the targeted-IM engine
and the RIS baseline.  Chunk workers return packed ``(nodes,
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

from repro.propagation.packed import PackedRRSets
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "DEFAULT_RR_CHUNK_SIZE",
    "ExecutionBackend",
    "default_worker_count",
    "draw_batch_key",
    "rr_chunk_plan",
    "seed_to_sequence",
]

#: Sets per chunk of an RR batch: pure scheduling (any chunk size gives
#: the same bytes), sized to one pass of the NumPy sampler.
DEFAULT_RR_CHUNK_SIZE = 1024


def default_worker_count() -> int:
    """Worker count to use when the caller doesn't specify one."""
    return max(os.cpu_count() or 1, 1)


def draw_batch_key(rng: np.random.Generator) -> int:
    """The key of one RR batch: one uint64 draw from *rng*."""
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def rr_chunk_plan(num_sets: int, chunk_size: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` set-index range of every chunk of a batch.

    Each chunk samples sets ``start … stop − 1`` from the batch's key and
    their roots; a scheduler (a worker pool mapping chunks, or a cluster
    coordinator handing contiguous chunk ranges to shard processes)
    reproduces the batch by concatenating chunk results in plan order.
    """
    return [
        (start, min(start + chunk_size, num_sets))
        for start in range(0, num_sets, chunk_size)
    ]


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
    task: Tuple[Any, int, int, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample one chunk ``(payload, key, first, roots)`` of an RR batch.

    Module-level (not a closure) so :class:`ProcessPoolBackend` can pickle
    it.  Returns the packed ``(nodes, offsets)`` arrays — flat buffers,
    cheap to pickle back.
    """
    from repro.propagation.kernels import sample_packed_rr_sets

    payload, key, first, roots = task
    graph, edge_probabilities = _resolve_sampling_payload(payload)
    return sample_packed_rr_sets(graph, edge_probabilities, key, first, roots)


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
    ) -> PackedRRSets:
        """Sample *num_sets* RR sets in chunks of *chunk_size*.

        The batch key is drawn from *seed* first, then (without explicit
        *roots*) the uniform roots; with *roots*, set ``i`` is rooted at
        ``roots[i % len(roots)]``.  The result depends only on *seed* and
        *roots* — never on the backend, its workers or *chunk_size*.
        """
        check_positive(num_sets, "num_sets")
        check_positive(chunk_size, "chunk_size")
        if graph.num_nodes == 0:
            raise ValidationError("cannot sample RR sets on an empty graph")
        rng = as_generator(seed)
        key = draw_batch_key(rng)
        if roots is None:
            root_array = rng.integers(0, graph.num_nodes, size=num_sets)
        else:
            root_array = np.asarray(roots, dtype=np.int64).ravel()
            if root_array.size == 0:
                raise ValidationError("roots must not be empty when given")
            bad = root_array[(root_array < 0) | (root_array >= graph.num_nodes)]
            if bad.size:
                raise ValidationError(
                    f"root must be in [0, {graph.num_nodes}), got {int(bad[0])}"
                )
            root_array = np.resize(root_array, num_sets)
        payload = self._sampling_payload(
            graph, np.asarray(edge_probabilities, dtype=np.float64)
        )
        tasks = [
            (payload, key, start, root_array[start:stop])
            for start, stop in rr_chunk_plan(num_sets, chunk_size)
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
