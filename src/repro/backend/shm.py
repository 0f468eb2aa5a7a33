"""The zero-copy shared-memory data plane for cross-process payloads.

Process workers (:class:`~repro.backend.pools.ProcessPoolBackend`) and
cluster shards (:mod:`repro.cluster`) produce large flat int64 payloads —
packed RR-set ``(nodes, offsets)`` chunks, greedy-cover ``coverage`` /
``first_seen`` vectors — that historically crossed the pipe as pickles.
This module gives producers a **shared-memory arena** to write those arrays
into, so only a tiny :class:`ShmSlice` descriptor (segment name, byte
offset, element counts) crosses the pipe and the parent reconstructs NumPy
views zero-copy with :meth:`ShmArena.read`.

Why file-backed ``mmap`` and not :mod:`multiprocessing.shared_memory`
----------------------------------------------------------------------

``SharedMemory`` routes every attach through the resource tracker, which on
CPython 3.10–3.12 (bpo-38119) can unlink a segment while a sibling process
still uses it and spews ``KeyError`` noise at interpreter exit.  The arena
instead maps plain files created in ``/dev/shm`` (RAM-backed tmpfs on
Linux; transparent tempdir fallback elsewhere), collected under **one
parent-owned session directory**:

* every file — including those a worker grows after the fork — lives in
  that directory, so the parent's ``rmtree`` on close (or its GC
  finalizer) reclaims *everything*, even after a ``SIGKILL``-ed child:
  children never own segments, so a crashed shard cannot leak one;
* files are created with ``ftruncate`` and therefore **sparse**: a
  generously sized arena costs no memory until pages are actually written;
* under the ``fork`` start method the initial mapping is simply inherited
  (``MAP_SHARED`` survives the fork), so no name-passing handshake is
  needed for the common case.

Lifecycle and safety rules
--------------------------

The arena is a **single-writer bump allocator**: exactly one process
writes (the worker/shard), the parent only reads.  Writers never unlink the
base file; ``reset()`` rewinds the bump pointer and unlinks any grow-files
the writer itself created.  Readers must finish consuming (or copy out of)
a slice's views before the writer is allowed to reset — the pool backend
enforces this with transport-window epochs, the cluster with its strict
one-command-in-flight request/reply ordering.

``REPRO_SHM=0`` (or ``off`` / ``pickle``) disables the data plane entirely
and keeps the historical pickle transport as a byte-identical twin,
mirroring the ``REPRO_NATIVE`` pattern; platforms without the ``fork``
start method fall back automatically.  Which transport ran is pure
observability (``execution.payload_transport`` in the stats snapshots) —
never an answer change.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.env import env_positive_int, env_switch

__all__ = [
    "DEFAULT_ARENA_BYTES",
    "ShmArena",
    "ShmSession",
    "ShmSlice",
    "payload_transport",
    "shm_enabled",
    "shm_root",
]

#: Session directories are named ``<prefix><random>`` under :func:`shm_root`
#: — the leak-accounting fixtures key on this prefix.
SESSION_PREFIX = "repro-shm-"

#: Initial capacity of one arena file.  Files are sparse (``ftruncate``),
#: so a generous default costs nothing until written; override with
#: ``REPRO_SHM_ARENA_BYTES``.
DEFAULT_ARENA_BYTES = 32 * 1024 * 1024

#: Slices start on this alignment (cache-line; also satisfies int64).
_ALIGN = 64

_DISABLING_VALUES = ("0", "off", "pickle")
_ENABLING_VALUES = ("", "1", "on", "shm")


def shm_enabled() -> bool:
    """Whether the shared-memory data plane is available and not opted out.

    ``REPRO_SHM=0`` / ``off`` / ``pickle`` forces the pickle twin; the
    arena also needs the ``fork`` start method (the initial mapping is
    inherited, and descriptors name files only the forked family can
    resolve), so non-POSIX platforms fall back automatically.  Any other
    value (``REPRO_SHM=maybe``) raises a
    :class:`~repro.utils.validation.ValidationError` at startup rather
    than silently picking a transport.
    """
    if not env_switch("REPRO_SHM", on=_ENABLING_VALUES, off=_DISABLING_VALUES):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def payload_transport() -> str:
    """Provenance string for stats snapshots: ``"shm"`` or ``"pickle"``."""
    return "shm" if shm_enabled() else "pickle"


def shm_root() -> str:
    """Directory session dirs are created in: ``/dev/shm`` when usable
    (RAM-backed tmpfs), the platform tempdir otherwise."""
    candidate = "/dev/shm"
    if os.path.isdir(candidate) and os.access(candidate, os.W_OK):
        return candidate
    return tempfile.gettempdir()


def default_arena_bytes() -> int:
    """Per-arena initial capacity (``REPRO_SHM_ARENA_BYTES`` override).

    A malformed or non-positive override raises a
    :class:`~repro.utils.validation.ValidationError` when the first arena
    is sized — never a silent fall back to the default.
    """
    return env_positive_int("REPRO_SHM_ARENA_BYTES", DEFAULT_ARENA_BYTES)


@dataclass(frozen=True)
class ShmSlice:
    """Descriptor of int64 arrays written back-to-back into one segment.

    This is what crosses the pipe instead of the arrays themselves: a
    segment (file) name relative to the session directory, the byte offset
    of the first array, and the element count of each.  Arrays are stored
    contiguously in declaration order, each 8-byte aligned (int64 packing
    is naturally aligned once the slice start is).
    """

    segment: str
    offset: int
    lengths: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Total payload bytes the descriptor points at."""
        return 8 * sum(self.lengths)


def _remove_session_dir(path: str, owner_pid: int) -> None:
    """Finalizer: remove the session directory — in the owner only.

    Forked children inherit the parent's :class:`ShmSession` object *and*
    its ``weakref.finalize`` callback; without the pid guard a child's
    interpreter exit would rmtree the directory out from under the live
    parent.
    """
    if os.getpid() != owner_pid:
        return
    shutil.rmtree(path, ignore_errors=True)


class ShmSession:
    """One parent-owned directory holding every arena file of a pool/cluster.

    The session is the leak-proofing unit: *all* arena files — the
    pre-fork bases and any files workers grow afterwards — are created
    inside it, so :meth:`close` (or the GC finalizer, pid-guarded against
    forked children) reclaims every byte regardless of how the children
    died.
    """

    def __init__(self) -> None:
        self.path = tempfile.mkdtemp(prefix=SESSION_PREFIX, dir=shm_root())
        self.owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _remove_session_dir, self.path, self.owner_pid
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Remove the directory and everything in it (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:
        return f"ShmSession(path={self.path!r}, closed={self.closed})"


class ShmArena:
    """Single-writer bump allocator over mmap'd files in a session dir.

    Created by the parent **before** forking, so the writer child inherits
    the base mapping; the parent keeps its own copy of the object as the
    reader endpoint.  After the fork the two copies diverge (each has its
    own bump pointer and map cache) but address the same physical pages.

    Writer protocol: :meth:`write_arrays` appends, :meth:`reset` rewinds
    (and unlinks any grow-files this writer created).  Reader protocol:
    :meth:`read` materialises read-only views for a descriptor, opening
    grow-files by name on demand.
    """

    def __init__(
        self,
        session: ShmSession,
        name: str,
        capacity: Optional[int] = None,
    ) -> None:
        self.session_path = session.path
        self.base_segment = name
        self._maps: Dict[str, mmap.mmap] = {}
        self._current = name
        self._offset = 0
        self._grow_serial = 0
        # Concurrent reader threads (overlapping transport windows) may
        # race to open the same grow-file; the lock keeps the cache sane.
        self._io_lock = threading.Lock()
        self._create_segment(name, capacity or default_arena_bytes())

    @classmethod
    def reader(cls, session: ShmSession) -> "ShmArena":
        """A read-only endpoint over a session (creates no segment).

        Segments are opened by descriptor name on demand, so one reader
        serves every writer arena in the session — the pool parent uses
        this to resolve descriptors from any worker.
        """
        arena = object.__new__(cls)
        arena.session_path = session.path
        arena.base_segment = ""
        arena._maps = {}
        arena._current = ""
        arena._offset = 0
        arena._grow_serial = 0
        arena._io_lock = threading.Lock()
        return arena

    # -- shared plumbing ------------------------------------------------

    def _create_segment(self, name: str, capacity: int) -> None:
        path = os.path.join(self.session_path, name)
        fd = os.open(path, os.O_CREAT | os.O_RDWR | os.O_EXCL, 0o600)
        try:
            os.ftruncate(fd, capacity)
            self._maps[name] = mmap.mmap(fd, capacity)
        finally:
            os.close(fd)

    def _open_segment(self, name: str) -> mmap.mmap:
        """Reader side: map a segment another process created, by name."""
        path = os.path.join(self.session_path, name)
        fd = os.open(path, os.O_RDWR)
        try:
            segment = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self._maps[name] = segment
        return segment

    # -- writer side ----------------------------------------------------

    def write_arrays(self, arrays: Sequence[np.ndarray]) -> ShmSlice:
        """Append *arrays* (coerced to int64) contiguously; return a slice.

        Grows into a fresh segment file when the current one cannot hold
        the payload — the new file still lives in the (parent-owned)
        session directory, so crash cleanup is unaffected.  Raises
        ``OSError`` when the filesystem refuses (callers fall back to the
        inline pickle payload).
        """
        flats = [
            np.ascontiguousarray(array, dtype=np.int64) for array in arrays
        ]
        total = 8 * sum(flat.size for flat in flats)
        start = -(-self._offset // _ALIGN) * _ALIGN
        segment = self._maps[self._current]
        if start + total > len(segment):
            segment = self._grow(total)
            start = 0
        position = start
        for flat in flats:
            if flat.size:
                view = np.frombuffer(
                    segment, dtype=np.int64, count=flat.size, offset=position
                )
                view[:] = flat
            position += 8 * flat.size
        self._offset = position
        return ShmSlice(
            segment=self._current,
            offset=start,
            lengths=tuple(flat.size for flat in flats),
        )

    def _grow(self, min_bytes: int) -> mmap.mmap:
        """Switch writing to a fresh, larger segment file."""
        current_capacity = len(self._maps[self._current])
        capacity = max(2 * current_capacity, min_bytes + _ALIGN)
        self._grow_serial += 1
        name = f"{self.base_segment}.g{self._grow_serial}"
        self._create_segment(name, capacity)
        self._current = name
        self._offset = 0
        return self._maps[name]

    def reset(self) -> None:
        """Rewind to an empty arena; unlink grow-files this writer made.

        Only the writer calls this, and only when the owning transport
        guarantees no reader still needs earlier slices (epoch handshake
        in the pool backend, strict request/reply ordering in the
        cluster).  The base segment is kept mapped — its sparse pages are
        simply overwritten by later writes.
        """
        for name in list(self._maps):
            if name == self.base_segment:
                continue
            self._maps.pop(name).close()
            try:
                os.unlink(os.path.join(self.session_path, name))
            except OSError:  # pragma: no cover — already gone
                pass
        self._current = self.base_segment
        self._offset = 0

    # -- reader side ----------------------------------------------------

    def read(self, ref: ShmSlice) -> List[np.ndarray]:
        """Zero-copy read-only views for every array in *ref*.

        The views alias shared pages the writer may later overwrite (after
        the transport's reset handshake) — consumers must copy anything
        they keep past the exchange, which every current consumer does by
        construction (``PackedRRSets.from_chunks`` concatenates, both in
        the pool parent and in the cluster coordinator).
        """
        with self._io_lock:
            segment = self._maps.get(ref.segment)
            if segment is None:
                segment = self._open_segment(ref.segment)
        views: List[np.ndarray] = []
        position = ref.offset
        for count in ref.lengths:
            view = np.frombuffer(
                segment, dtype=np.int64, count=count, offset=position
            )
            view.setflags(write=False)
            views.append(view)
            position += 8 * count
        return views

    def close(self) -> None:
        """Drop every mapping (files are reclaimed by the session dir)."""
        for segment in self._maps.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover — live exported views
                pass
        self._maps.clear()

    def __repr__(self) -> str:
        return (
            f"ShmArena(base={self.base_segment!r}, current={self._current!r}, "
            f"offset={self._offset})"
        )
