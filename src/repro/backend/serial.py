"""The serial execution backend: chunked semantics, no pool."""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.backend.base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Runs every chunk inline on the calling thread.

    The reference implementation of the backend contract: parallel
    backends must produce exactly what this one produces for the same
    seed, because the seeded keys and roots — not scheduling — determine
    the results.  Chunk payloads (including the packed RR-set
    arrays) pass through by reference; nothing is copied or pickled.
    """

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def map_chunks(
        self, function: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Apply *function* chunk by chunk, in order."""
        return [function(chunk) for chunk in chunks]
