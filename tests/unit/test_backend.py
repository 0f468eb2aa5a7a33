"""Unit tests for repro.backend: the execution-backend contract.

The load-bearing property is determinism: for a fixed seed, every backend
at every worker count must produce identical results, because chunking and
per-chunk RNG streams — not scheduling — define the output.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    default_worker_count,
    resolve_backend,
    seed_to_sequence,
)
from repro.utils.validation import ValidationError


def _square(value):
    return value * value


@pytest.fixture(
    params=["serial", "threads", "processes"], ids=lambda name: name
)
def any_backend(request):
    backend = resolve_backend(request.param, workers=2)
    yield backend
    backend.close()


class TestMapChunks:
    def test_preserves_order(self, any_backend):
        values = list(range(23))
        assert any_backend.map_chunks(_square, values) == [
            value * value for value in values
        ]

    def test_empty(self, any_backend):
        assert any_backend.map_chunks(_square, []) == []

    def test_single_chunk(self, any_backend):
        assert any_backend.map_chunks(_square, [7]) == [49]

    def test_reusable_after_close(self):
        backend = ThreadPoolBackend(2)
        assert backend.map_chunks(_square, [1, 2]) == [1, 4]
        backend.close()
        assert backend.map_chunks(_square, [3, 4]) == [9, 16]
        backend.close()

    def test_context_manager_closes(self):
        with ThreadPoolBackend(2) as backend:
            assert backend.map_chunks(_square, [2, 3]) == [4, 9]
        assert backend._executor is None


class TestResolveBackend:
    def test_names(self):
        assert resolve_backend(None).name == "serial"
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("threads", 3).workers == 3
        assert resolve_backend("processes", 2).workers == 2
        assert set(BACKEND_NAMES) == {"serial", "threads", "processes"}

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            resolve_backend("quantum")

    def test_invalid_workers(self):
        with pytest.raises(ValidationError):
            ThreadPoolBackend(0)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1
        assert resolve_backend("threads").workers == default_worker_count()

    def test_backend_repr_names(self):
        assert "workers=1" in repr(SerialBackend())
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestSeedToSequence:
    def test_int_and_none(self):
        assert isinstance(seed_to_sequence(5), np.random.SeedSequence)
        assert isinstance(seed_to_sequence(None), np.random.SeedSequence)

    def test_sequence_passthrough(self):
        sequence = np.random.SeedSequence(9)
        assert seed_to_sequence(sequence) is sequence

    def test_generator_draw_is_deterministic(self):
        first = seed_to_sequence(np.random.default_rng(3))
        second = seed_to_sequence(np.random.default_rng(3))
        assert first.entropy == second.entropy


class TestSampleRRSets:
    def test_identical_across_backends_and_worker_counts(
        self, medium_graph, medium_probabilities
    ):
        """The tentpole acceptance property, at the backend level."""
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 600, seed=11
        ).to_sets()
        for make in (
            lambda: ThreadPoolBackend(2),
            lambda: ThreadPoolBackend(4),
            lambda: ProcessPoolBackend(2),
        ):
            with make() as backend:
                sampled = backend.sample_rr_sets_packed(
                    medium_graph, medium_probabilities, 600, seed=11
                ).to_sets()
            assert sampled == reference

    def test_chunk_size_is_not_part_of_the_contract(
        self, medium_graph, medium_probabilities
    ):
        """Same seed ⇒ same draw, on any backend at any chunk size."""
        serial = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 100, seed=2, chunk_size=16
        ).to_sets()
        with ThreadPoolBackend(3) as backend:
            threaded = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 100, seed=2, chunk_size=9
            ).to_sets()
        whole = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 100, seed=2
        ).to_sets()
        assert serial == threaded == whole
        assert all(rr for rr in serial)  # every RR set contains its root

    def test_roots_cycle_across_chunk_bounds(self, line_graph):
        rr_sets = SerialBackend().sample_rr_sets_packed(
            line_graph, np.zeros(3), 7, seed=0, roots=[3, 1], chunk_size=2
        ).to_sets()
        assert [next(iter(rr)) for rr in rr_sets] == [3, 1, 3, 1, 3, 1, 3]

    def test_invalid_root_rejected(self, line_graph):
        with pytest.raises(ValidationError):
            SerialBackend().sample_rr_sets_packed(
                line_graph, np.zeros(3), 4, seed=0, roots=[9]
            )

    def test_empty_roots_rejected(self, line_graph):
        with pytest.raises(ValidationError):
            SerialBackend().sample_rr_sets_packed(
                line_graph, np.zeros(3), 4, seed=0, roots=[]
            )

    def test_num_sets_respected(self, medium_graph, medium_probabilities):
        with ThreadPoolBackend(2) as backend:
            sampled = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=1, chunk_size=77
            ).to_sets()
        assert len(sampled) == 300
