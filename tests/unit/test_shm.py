"""The process pool's chunk transport: one pipe, identical bytes, no leaks.

A ``ProcessPoolBackend`` chunk returns its packed ``(nodes, offsets)``
arrays pickled in the reply; there is no shared-memory data plane.  The
retired ``REPRO_SHM`` switch may still be exported by old deployments:
under either of its settings the pool must serve the serial bytes and
leave nothing under ``/dev/shm``.
"""

import os

import numpy as np
import pytest

from repro.backend import ProcessPoolBackend, SerialBackend


def _shm_entries():
    """Names under ``/dev/shm`` (empty where the platform has none)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


class TestPoolTransport:
    """Process-pool chunks equal serial ones, batch after batch."""

    @pytest.fixture(scope="class")
    def reference(self, medium_graph, medium_probabilities):
        return SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 600, seed=11
        )

    def _assert_matches(self, backend, medium_graph, medium_probabilities, reference):
        packed = backend.sample_rr_sets_packed(
            medium_graph, medium_probabilities, 600, seed=11
        )
        np.testing.assert_array_equal(packed.nodes, reference.nodes)
        np.testing.assert_array_equal(packed.offsets, reference.offsets)

    def test_shm_transport_bytes(
        self, monkeypatch, medium_graph, medium_probabilities, reference
    ):
        monkeypatch.setenv("REPRO_SHM", "1")
        before = _shm_entries()
        with ProcessPoolBackend(3) as backend:
            self._assert_matches(
                backend, medium_graph, medium_probabilities, reference
            )
            # A second batch on the same live pool reuses its workers.
            self._assert_matches(
                backend, medium_graph, medium_probabilities, reference
            )
        assert _shm_entries() <= before

    def test_pickle_twin_bytes(
        self, monkeypatch, medium_graph, medium_probabilities, reference
    ):
        monkeypatch.setenv("REPRO_SHM", "0")
        before = _shm_entries()
        with ProcessPoolBackend(3) as backend:
            self._assert_matches(
                backend, medium_graph, medium_probabilities, reference
            )
        assert _shm_entries() <= before

    def test_close_is_idempotent_and_backend_reusable(
        self, medium_graph, medium_probabilities
    ):
        before = _shm_entries()
        backend = ProcessPoolBackend(2)
        first = backend.sample_rr_sets_packed(
            medium_graph, medium_probabilities, 300, seed=3, chunk_size=64
        )
        backend.close()
        backend.close()
        # The executor contract allows reuse after close: a fresh pool
        # must produce the same bytes again.
        second = backend.sample_rr_sets_packed(
            medium_graph, medium_probabilities, 300, seed=3, chunk_size=64
        )
        backend.close()
        np.testing.assert_array_equal(first.nodes, second.nodes)
        np.testing.assert_array_equal(first.offsets, second.offsets)
        assert _shm_entries() <= before
