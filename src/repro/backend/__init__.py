"""Pluggable execution backends for OCTOPUS's parallel compute.

RR-set sampling, topic-sample precomputation and influencer-sketch
construction are all built from i.i.d. tasks; this package decides *where*
those tasks run.  Pick a backend explicitly::

    from repro.backend import ThreadPoolBackend
    collection = RRSetCollection.sample(
        graph, probabilities, 20_000, seed=7, backend=ThreadPoolBackend(4)
    )

or by name through :func:`resolve_backend` (what the CLI's ``--backend`` /
``--workers`` flags and :class:`~repro.core.octopus.OctopusConfig` use)::

    backend = resolve_backend("processes", workers=4)

Determinism contract: for a fixed seed, every backend at every worker
count and chunk size produces identical results, because an RR batch is a
pure function of its seeded key and roots and a chunk is just a range of
its set indices (see :mod:`repro.backend.base`) — whether the compiled
core or NumPy samples.  RR-set chunks travel as packed flat arrays, and
:class:`ProcessPoolBackend` adopts the graph and edge-probability arrays
once per worker instead of pickling them per chunk.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backend.base import (
    DEFAULT_RR_CHUNK_SIZE,
    ExecutionBackend,
    default_worker_count,
    seed_to_sequence,
)
from repro.backend.pools import ProcessPoolBackend, ThreadPoolBackend
from repro.backend.serial import SerialBackend
from repro.utils.validation import ValidationError

__all__ = [
    "DEFAULT_RR_CHUNK_SIZE",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "default_worker_count",
    "resolve_backend",
    "seed_to_sequence",
]

#: Recognised ``--backend`` spellings, in presentation order.
BACKEND_NAMES = ("serial", "threads", "processes")


def resolve_backend(
    spec: Union[None, str, ExecutionBackend],
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Turn a backend name (or an existing backend) into a backend.

    ``None`` and ``"serial"`` give a :class:`SerialBackend`; ``"threads"``
    and ``"processes"`` give the pooled backends with *workers* workers
    (default: the machine's CPU count).  An :class:`ExecutionBackend`
    instance passes through unchanged, letting callers share one pool
    across components.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None or spec == "serial":
        return SerialBackend()
    if spec == "threads":
        return ThreadPoolBackend(workers)
    if spec == "processes":
        return ProcessPoolBackend(workers)
    raise ValidationError(
        f"unknown execution backend {spec!r}; expected one of {BACKEND_NAMES}"
    )
