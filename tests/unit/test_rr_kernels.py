"""Kernel-equivalence and seed-stability tests for RR sampling.

The vectorized (frontier-batched) and native (chunk-batched, optionally
compiled) kernels draw from the *same* distribution — each in-edge of
each visited node is crossed with exactly one fresh coin — but consume
their RNG streams in different orders, so they are compared
distributionally (against exact world enumeration) rather than
sample-for-sample.  Per kernel, a fixed seed must give
bit-identical packed arrays on every backend at every worker count.  The
parametrized suites below run over all of ``RR_KERNELS``, native
included; the native kernel's own contracts (compiled-vs-fallback draw
identity, shard partitions, provenance) live in ``test_native_kernel.py``.
"""

import itertools

import numpy as np
import pytest

from reference.rrsets import generate_rr_set
from repro.backend import ProcessPoolBackend, SerialBackend, ThreadPoolBackend
from repro.graph.digraph import SocialGraph
from repro.propagation.kernels import (
    DEFAULT_RR_KERNEL,
    RR_KERNELS,
    check_rr_kernel,
    gather_csr_slices,
    reverse_reachable_frontier,
)
from repro.propagation.rrsets import RRSetCollection
from repro.utils.validation import ValidationError


class TestKernelRegistry:
    def test_names(self):
        assert RR_KERNELS == ("vectorized", "native")
        assert DEFAULT_RR_KERNEL == "vectorized"
        assert check_rr_kernel("native") == "native"

    @pytest.mark.parametrize("kernel", ["cuda", "legacy"])
    def test_unknown_kernel_rejected(self, kernel):
        with pytest.raises(ValidationError):
            check_rr_kernel(kernel)

    def test_collection_sample_rejects_unknown_kernel(self, line_graph):
        with pytest.raises(ValidationError):
            RRSetCollection.sample(
                line_graph, np.zeros(3), 4, seed=0, kernel="cuda"
            )


class TestGatherCsrSlices:
    def test_gathers_row_slices_in_order(self):
        starts = np.array([2, 7, 3], dtype=np.int64)
        stops = np.array([5, 7, 6], dtype=np.int64)
        assert gather_csr_slices(starts, stops).tolist() == [2, 3, 4, 3, 4, 5]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert gather_csr_slices(empty, empty).size == 0
        zeros = np.zeros(3, dtype=np.int64)
        assert gather_csr_slices(zeros, zeros).size == 0


class TestVectorizedKernelDeterministicGraphs:
    """On 0/1 probabilities both kernels must agree exactly."""

    @pytest.mark.parametrize("kernel", RR_KERNELS)
    def test_line_graph(self, line_graph, kernel):
        assert generate_rr_set(
            line_graph, np.ones(3), 3, seed=0, kernel=kernel
        ) == {0, 1, 2, 3}
        assert generate_rr_set(
            line_graph, np.zeros(3), 2, seed=0, kernel=kernel
        ) == {2}

    def test_frontier_kernel_scratch_reuse(self, line_graph):
        scratch = np.zeros(4, dtype=bool)
        rng = np.random.default_rng(0)
        members = reverse_reachable_frontier(
            line_graph, np.ones(3), 3, rng, visited=scratch
        )
        assert set(members.tolist()) == {0, 1, 2, 3}
        scratch[members] = False
        assert not scratch.any()


def _exact_rr_distribution(graph, probabilities, root):
    """P(RR set = S) by exhaustive live-edge world enumeration."""
    edges = [(eid, u, v) for eid, u, v in graph.edges()]
    distribution = {}
    for pattern in itertools.product([False, True], repeat=len(edges)):
        weight = 1.0
        incoming = {}
        for (edge_id, source, target), live in zip(edges, pattern):
            weight *= probabilities[edge_id] if live else 1 - probabilities[edge_id]
            if live:
                incoming.setdefault(target, []).append(source)
        reached = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            for source in incoming.get(node, ()):
                if source not in reached:
                    reached.add(source)
                    stack.append(source)
        key = frozenset(reached)
        distribution[key] = distribution.get(key, 0.0) + weight
    return distribution


class TestKernelDistributionEquivalence:
    """Both kernels must sample the exact enumerable RR distribution."""

    @pytest.fixture(scope="class")
    def world_graph(self):
        return SocialGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (2, 3)])

    @pytest.fixture(scope="class")
    def world_probabilities(self):
        return np.array([0.7, 0.3, 0.5, 0.6])

    @pytest.mark.parametrize("kernel", RR_KERNELS)
    def test_matches_exact_distribution(
        self, world_graph, world_probabilities, kernel
    ):
        root = 3
        exact = _exact_rr_distribution(world_graph, world_probabilities, root)
        assert abs(sum(exact.values()) - 1.0) < 1e-12
        num_sets = 6000
        collection = RRSetCollection.sample(
            world_graph,
            world_probabilities,
            num_sets,
            seed=1234,
            roots=[root],
            kernel=kernel,
        )
        counts = {}
        for rr_set in collection.rr_sets:
            key = frozenset(rr_set)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(exact)  # impossible outcomes never sampled
        for outcome, probability in exact.items():
            empirical = counts.get(outcome, 0) / num_sets
            assert empirical == pytest.approx(probability, abs=0.03)

    def test_kernels_agree_on_mean_rr_size(
        self, medium_graph, medium_probabilities
    ):
        sizes = {}
        for kernel in RR_KERNELS:
            collection = RRSetCollection.sample(
                medium_graph, medium_probabilities, 1500, seed=7, kernel=kernel
            )
            sizes[kernel] = np.mean(
                np.diff(collection.packed.offsets).astype(np.float64)
            )
        assert sizes["native"] == pytest.approx(sizes["vectorized"], rel=0.1)


class TestSeedStability:
    """Fixed seed ⇒ identical packed arrays per kernel, any backend/workers."""

    @pytest.mark.parametrize("kernel", RR_KERNELS)
    def test_backends_and_worker_counts_agree(
        self, medium_graph, medium_probabilities, kernel
    ):
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 300, seed=17, kernel=kernel
        )
        factories = [lambda: SerialBackend()]
        for workers in (1, 2, 4):
            factories.append(lambda w=workers: ThreadPoolBackend(w))
            factories.append(lambda w=workers: ProcessPoolBackend(w))
        for factory in factories:
            with factory() as backend:
                packed = backend.sample_rr_sets_packed(
                    medium_graph,
                    medium_probabilities,
                    300,
                    seed=17,
                    kernel=kernel,
                )
            np.testing.assert_array_equal(packed.nodes, reference.nodes)
            np.testing.assert_array_equal(packed.offsets, reference.offsets)

    @pytest.mark.parametrize("kernel", RR_KERNELS)
    def test_collection_sample_matches_packed_backend_path(
        self, medium_graph, medium_probabilities, kernel
    ):
        direct = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 120, seed=3, kernel=kernel
        ).to_sets()
        collection = RRSetCollection.sample(
            medium_graph,
            medium_probabilities,
            120,
            seed=3,
            backend=SerialBackend(),
            kernel=kernel,
        )
        assert collection.rr_sets == direct


class TestProcessPoolSharedState:
    """The graph/probability arrays are adopted once per worker, not per chunk."""

    def test_payload_is_a_token_and_is_reused(
        self, medium_graph, medium_probabilities
    ):
        with ProcessPoolBackend(2) as backend:
            first = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 600, seed=5, chunk_size=64
            )
            assert len(backend._published) == 1
            token = next(iter(backend._published.values()))
            assert isinstance(token, int)
            second = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 600, seed=5, chunk_size=64
            )
            # Same arrays ⇒ same token, no republish.
            assert len(backend._published) == 1
            np.testing.assert_array_equal(first.nodes, second.nodes)

    def test_new_probabilities_publish_new_token(
        self, medium_graph, medium_probabilities
    ):
        other = np.asarray(medium_probabilities) * 0.5
        with ProcessPoolBackend(2) as backend:
            backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=5
            )
            backend.sample_rr_sets_packed(medium_graph, other, 300, seed=5)
            assert len(backend._published) == 2

    def test_matches_serial_after_state_rotation(
        self, medium_graph, medium_probabilities
    ):
        """Pool restarts on republish must not disturb determinism."""
        other = np.asarray(medium_probabilities) * 0.25
        with ProcessPoolBackend(2) as backend:
            backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=9
            )
            backend.sample_rr_sets_packed(medium_graph, other, 300, seed=9)
            rotated = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=9
            )
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 300, seed=9
        )
        np.testing.assert_array_equal(rotated.nodes, reference.nodes)
        np.testing.assert_array_equal(rotated.offsets, reference.offsets)

    def test_equal_content_in_fresh_arrays_reuses_entry(
        self, medium_graph, medium_probabilities
    ):
        """Per-query recomputed (but equal) probability arrays must hit.

        The query path builds a fresh ``weights @ gamma`` array per query;
        keying by object identity would miss every time and churn the
        pool, so the cache keys on the probability bytes.
        """
        with ProcessPoolBackend(2) as backend:
            backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=5
            )
            backend.sample_rr_sets_packed(
                medium_graph, np.array(medium_probabilities), 300, seed=5
            )
            assert len(backend._published) == 1

    def test_close_releases_shared_payloads(
        self, medium_graph, medium_probabilities
    ):
        from repro.backend.base import _SHARED_SAMPLING_STATE

        backend = ProcessPoolBackend(2)
        backend.sample_rr_sets_packed(
            medium_graph, medium_probabilities, 300, seed=5
        )
        tokens = list(backend._published.values())
        assert all(token in _SHARED_SAMPLING_STATE for token in tokens)
        backend.close()
        assert not backend._published
        assert all(token not in _SHARED_SAMPLING_STATE for token in tokens)

    def test_dropped_backend_releases_registry(
        self, medium_graph, medium_probabilities
    ):
        """GC of an unclosed backend must not pin payloads in the registry."""
        import gc

        from repro.backend.base import _SHARED_SAMPLING_STATE

        backend = ProcessPoolBackend(2)
        token = backend._sampling_payload(
            medium_graph, np.asarray(medium_probabilities, dtype=np.float64)
        )
        assert token in _SHARED_SAMPLING_STATE
        del backend
        gc.collect()
        assert token not in _SHARED_SAMPLING_STATE

    def test_concurrent_threads_with_rotating_payloads(
        self, medium_graph, medium_probabilities
    ):
        """Concurrent query threads publishing fresh payloads must not
        crash the shared pool (busy pools are routed around, not closed)."""
        import threading

        base = np.asarray(medium_probabilities)
        results = {}
        errors = []
        with ProcessPoolBackend(2) as backend:

            def worker(index):
                probabilities = base * (0.5 + 0.1 * index)
                try:
                    packed = backend.sample_rr_sets_packed(
                        medium_graph, probabilities, 300, seed=13, chunk_size=32
                    )
                    results[index] = packed
                except Exception as error:  # pragma: no cover — the bug
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert set(results) == {0, 1, 2, 3}
        for index, packed in results.items():
            reference = SerialBackend().sample_rr_sets_packed(
                medium_graph, base * (0.5 + 0.1 * index), 300, seed=13,
                chunk_size=32,
            )
            np.testing.assert_array_equal(packed.nodes, reference.nodes)
