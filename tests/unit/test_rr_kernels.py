"""The contract of the one RR kernel.

RR set ``j`` of a batch keyed by ``key`` is the reverse reach of its root
under the counter-keyed coins ``splitmix64(key, j·E + e)`` — world ``j`` of
``CascadeWorlds(key)`` — written in canonical order (BFS level, then
ascending node).  The tests below pin that down exactly (a pure-Python
reference walk over the same coins, and the coupling with
:class:`~repro.propagation.ic.CascadeWorlds`), check the distribution
against exact world enumeration and an independent lazy-coin sampler, and
check that the bytes depend only on the seed: not on the chunk size, the
backend or its worker count.  Every sampling test runs on the NumPy path
and, where the extension is built, on the compiled core; the compiled
core's own contracts live in ``test_native_kernel.py``.
"""

import itertools
import multiprocessing

import numpy as np
import pytest

from reference.rrsets import generate_rr_set
from repro.backend import ProcessPoolBackend, SerialBackend, ThreadPoolBackend
from repro.backend.base import draw_batch_key
from repro.core.octopus import OctopusConfig
from repro.graph.digraph import SocialGraph
from repro.graph.generators import (
    erdos_renyi_digraph,
    preferential_attachment_digraph,
)
from repro.im.ris import ris_im
from repro.propagation import kernels, native
from repro.propagation.ic import CascadeWorlds
from repro.propagation.kernels import gather_csr_slices, sample_packed_rr_sets
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection

_MASK = (1 << 64) - 1


@pytest.fixture(params=["numpy", "compiled"])
def path(request, monkeypatch):
    """Run the test on one sampling path (the compiled one when built)."""
    if request.param == "compiled" and not native.HAVE_COMPILED:
        pytest.skip("compiled _rrnative extension not built")
    monkeypatch.setattr(native, "_FORCED_FALLBACK", request.param == "numpy")
    return request.param


def _coin(key: int, counter: int) -> int:
    """Scalar splitmix64 output ``mix(key + counter·γ)``, top 53 bits."""
    z = (key + counter * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) >> 11


def _reference_rr_set(graph, probabilities, key, index, root):
    """RR set *index* by a scalar reverse BFS over the same coins, in
    canonical order: BFS level, then ascending node."""
    order = [root]
    reached = {root}
    level = [root]
    while level:
        fresh = set()
        for node in level:
            for slot in range(graph.in_offsets[node], graph.in_offsets[node + 1]):
                edge = int(graph.in_edge_ids[slot])
                coin = _coin(key, index * graph.num_edges + edge)
                if coin < probabilities[edge] * 2.0**53:
                    source = int(graph.in_sources[slot])
                    if source not in reached:
                        fresh.add(source)
        level = sorted(fresh)
        reached.update(level)
        order.extend(level)
    return order


def _batch(graph, probabilities, seed, num_sets, **kwargs):
    return SerialBackend().sample_rr_sets_packed(
        graph, probabilities, num_sets, seed, **kwargs
    )


class TestKernelRegistry:
    """There is one kernel: no sampling entry point takes a kernel name."""

    def test_names(self):
        """One kernel name (read-only on the config), two path names."""
        assert OctopusConfig().rr_kernel == "counter-keyed"
        assert native.kernel_provenance() in ("compiled", "numpy")

    @pytest.mark.parametrize("kernel", ["cuda", "legacy"])
    def test_unknown_kernel_rejected(self, line_graph, kernel):
        with pytest.raises(TypeError):
            SerialBackend().sample_rr_sets_packed(
                line_graph, np.zeros(3), 4, seed=0, kernel=kernel
            )
        with pytest.raises(TypeError):
            ris_im(line_graph, np.zeros(3), 1, num_sets=4, kernel=kernel)

    def test_collection_sample_rejects_unknown_kernel(self, line_graph):
        with pytest.raises(TypeError):
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


class TestDeterministicGraphs:
    """On 0/1 probabilities the coins cannot matter."""

    def test_line_graph(self, line_graph, path):
        nodes, offsets = sample_packed_rr_sets(
            line_graph, np.ones(3), 5, 0, np.array([3, 2])
        )
        assert nodes.tolist() == [3, 2, 1, 0, 2, 1, 0]
        assert offsets.tolist() == [0, 4, 7]
        nodes, offsets = sample_packed_rr_sets(
            line_graph, np.zeros(3), 5, 0, np.array([2])
        )
        assert nodes.tolist() == [2]

    def test_levels_then_ascending_nodes(self, path):
        """Canonical order: the root, each BFS level ascending."""
        graph = SocialGraph.from_edges(
            6, [(4, 0), (1, 0), (3, 1), (5, 4), (2, 1), (2, 4)]
        )
        nodes, _ = sample_packed_rr_sets(
            graph, np.ones(graph.num_edges), 9, 0, np.array([0])
        )
        assert nodes.tolist() == [0, 1, 4, 2, 3, 5]

    def test_blocked_edges_give_singletons(self, path):
        graph = SocialGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        nodes, offsets = sample_packed_rr_sets(
            graph, np.zeros(4), 3, 10, np.array([0, 1, 2, 3])
        )
        assert nodes.tolist() == [0, 1, 2, 3]
        assert offsets.tolist() == [0, 1, 2, 3, 4]

    def test_single_node_graph(self, path):
        graph = SocialGraph.from_edges(1, [])
        nodes, offsets = sample_packed_rr_sets(
            graph, np.empty(0), 3, 0, np.zeros(5, dtype=np.int64)
        )
        assert nodes.tolist() == [0] * 5
        assert offsets.tolist() == list(range(6))


class TestCounterKeyedCoin:
    """Set ``first + i`` is exactly the reverse reach of ``roots[i]`` in
    world ``first + i`` of ``CascadeWorlds(key)``, in canonical order."""

    @pytest.fixture(scope="class")
    def small_graph(self):
        return preferential_attachment_digraph(30, 3, seed=5)

    @pytest.fixture(scope="class")
    def small_probabilities(self, small_graph):
        return np.random.default_rng(6).uniform(0.0, 0.8, small_graph.num_edges)

    @pytest.mark.parametrize(
        "probability",
        [0.0, 2.0**-53, 0.5, np.nextafter(0.5, 0.0), 1.0 - 2.0**-53, 1.0],
    )
    def test_integer_threshold_is_the_float_test(self, probability):
        """``u < ⌈p·2⁵³⌉`` is ``u < p·2⁵³`` on both sides of the boundary."""
        threshold = native.coin_thresholds(np.array([probability]))[0]
        boundary = probability * 2.0**53
        near = {int(np.floor(boundary)) + step for step in (-2, -1, 0, 1, 2)}
        for u in sorted(u for u in near if 0 <= u < 2**53):
            assert (np.uint64(u) < threshold) == (u < boundary), (probability, u)

    def test_live_coins_are_the_float_coins(self, small_probabilities):
        key = 0xDEADBEEF12345
        edges = np.arange(small_probabilities.size)
        counters = np.arange(40 * edges.size, dtype=np.uint64)
        live = native.live_coins(
            key,
            counters.copy(),
            np.tile(native.coin_thresholds(small_probabilities), 40),
        )
        expected = [
            int(counter)
            for counter in counters
            if _coin(key, int(counter)) * 2.0**-53
            < small_probabilities[int(counter) % edges.size]
        ]
        assert live.tolist() == expected

    @pytest.mark.parametrize("first", [0, 13])
    def test_matches_the_scalar_reference_walk(
        self, small_graph, small_probabilities, path, first
    ):
        key = 0xC0FFEE123456789
        roots = np.random.default_rng(7).integers(0, small_graph.num_nodes, 40)
        packed = PackedRRSets(
            small_graph.num_nodes,
            *sample_packed_rr_sets(
                small_graph, small_probabilities, key, first, roots
            ),
        )
        for index, root in enumerate(roots):
            assert packed.set_nodes(index).tolist() == _reference_rr_set(
                small_graph, small_probabilities, key, first + index, int(root)
            )

    @pytest.mark.parametrize("first", [0, 13])
    def test_is_the_reverse_reach_in_cascade_worlds(
        self, small_graph, small_probabilities, path, first
    ):
        key = 987654321987654321
        count = 25
        roots = np.random.default_rng(8).integers(0, small_graph.num_nodes, count)
        packed = PackedRRSets(
            small_graph.num_nodes,
            *sample_packed_rr_sets(
                small_graph, small_probabilities, key, first, roots
            ),
        )
        num_nodes = small_graph.num_nodes
        worlds = CascadeWorlds(
            small_graph, small_probabilities, first + count, key
        )
        reaches = np.zeros((count, num_nodes), dtype=bool)
        for node in range(num_nodes):
            worlds.clear()
            worlds.explore([node])
            marked = np.zeros((first + count) * num_nodes, dtype=bool)
            marked[worlds.marked_pairs()] = True
            targets = (first + np.arange(count)) * num_nodes + roots
            reaches[:, node] = marked[targets]
        for index in range(count):
            assert set(packed.set_nodes(index).tolist()) == set(
                np.flatnonzero(reaches[index]).tolist()
            )


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
    """The kernel samples the exact enumerable RR distribution."""

    @pytest.fixture(scope="class")
    def world_graph(self):
        return SocialGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (2, 3)])

    @pytest.fixture(scope="class")
    def world_probabilities(self):
        return np.array([0.7, 0.3, 0.5, 0.6])

    def test_matches_exact_distribution(
        self, world_graph, world_probabilities, path
    ):
        root = 3
        exact = _exact_rr_distribution(world_graph, world_probabilities, root)
        assert abs(sum(exact.values()) - 1.0) < 1e-12
        num_sets = 6000
        collection = RRSetCollection.sample(
            world_graph, world_probabilities, num_sets, seed=1234, roots=[root]
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
        """The kernel and the independent lazy-coin reference sampler
        (:func:`reference.rrsets.generate_rr_set`) agree on mean size."""
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 1500, seed=7
        )
        served = np.mean(np.diff(collection.packed.offsets).astype(np.float64))
        rng = np.random.default_rng(7)
        roots = rng.integers(0, medium_graph.num_nodes, 1500)
        reference = np.mean(
            [
                len(generate_rr_set(medium_graph, medium_probabilities, int(r), rng))
                for r in roots
            ]
        )
        assert served == pytest.approx(reference, rel=0.1)


class TestChunkInvariance:
    """A batch is a pure function of (key, roots): chunk size is scheduling."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 300])
    def test_chunk_sizes_give_identical_bytes(
        self, medium_graph, medium_probabilities, path, chunk_size
    ):
        reference = _batch(medium_graph, medium_probabilities, 41, 300)
        chunked = _batch(
            medium_graph, medium_probabilities, 41, 300, chunk_size=chunk_size
        )
        np.testing.assert_array_equal(chunked.nodes, reference.nodes)
        np.testing.assert_array_equal(chunked.offsets, reference.offsets)

    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 300])
    def test_root_cycle_across_chunk_sizes(
        self, medium_graph, medium_probabilities, path, chunk_size
    ):
        roots = [3, 1, 4, 1, 5, 9, 2, 6]
        reference = _batch(medium_graph, medium_probabilities, 42, 300, roots=roots)
        chunked = _batch(
            medium_graph,
            medium_probabilities,
            42,
            300,
            roots=roots,
            chunk_size=chunk_size,
        )
        np.testing.assert_array_equal(chunked.nodes, reference.nodes)
        np.testing.assert_array_equal(chunked.offsets, reference.offsets)
        firsts = chunked.nodes[chunked.offsets[:-1]]
        assert firsts.tolist() == np.resize(roots, 300).tolist()

    def test_key_then_uniform_roots_come_from_the_seed(
        self, medium_graph, medium_probabilities
    ):
        """The documented draw order: the key, then the uniform roots."""
        rng = np.random.default_rng(43)
        key = draw_batch_key(rng)
        roots = rng.integers(0, medium_graph.num_nodes, size=200)
        nodes, offsets = sample_packed_rr_sets(
            medium_graph, medium_probabilities, key, 0, roots
        )
        batch = _batch(medium_graph, medium_probabilities, 43, 200)
        np.testing.assert_array_equal(batch.nodes, nodes)
        np.testing.assert_array_equal(batch.offsets, offsets)


class TestPassSizeInvariance:
    """The NumPy sampler sizes its passes by members; the sizing is
    scheduling only, like the chunk size."""

    NUM_SETS = 1100  # past the first pass's 1 024 sets

    @pytest.fixture(scope="class")
    def dense(self):
        """A graph whose RR sets average well over 50 nodes."""
        graph = erdos_renyi_digraph(120, 0.05, seed=3)
        return graph, np.full(graph.num_edges, 0.3)

    @pytest.fixture
    def pass_sizes(self, monkeypatch):
        """The set count of every NumPy pass, in order."""
        sizes = []
        sample_pass = kernels._sample_pass
        monkeypatch.setattr(
            kernels,
            "_sample_pass",
            lambda *args: sizes.append(args[-1].size) or sample_pass(*args),
        )
        return sizes

    @pytest.mark.parametrize("first", [0, 4099])
    @pytest.mark.parametrize("regime", ["medium", "dense"])
    def test_pass_sizing_gives_identical_bytes(
        self, medium_graph, medium_probabilities, dense, path, monkeypatch,
        pass_sizes, regime, first,
    ):
        if regime == "medium":
            graph, probabilities = medium_graph, medium_probabilities
        else:
            graph, probabilities = dense
        roots = np.random.default_rng(first).integers(
            0, graph.num_nodes, size=self.NUM_SETS
        )
        reference = sample_packed_rr_sets(graph, probabilities, 77, first, roots)
        if regime == "dense":
            assert reference[0].size / self.NUM_SETS >= 50
        # (floor, pair budget) → the expected NumPy pass sizes.  By
        # default the first pass holds 1 024 sets, and on both graphs the
        # pair budget takes the other 76 in one pass.
        sizings = {
            (1, 1): [1] * self.NUM_SETS,
            (kernels._PASS_FLOOR, kernels._PASS_PAIRS): [1024, 76],
            (self.NUM_SETS, kernels._PASS_PAIRS): [self.NUM_SETS],
        }
        for (floor, pairs), expected in sizings.items():
            monkeypatch.setattr(kernels, "_PASS_FLOOR", floor)
            monkeypatch.setattr(kernels, "_PASS_PAIRS", pairs)
            pass_sizes.clear()
            nodes, offsets = sample_packed_rr_sets(
                graph, probabilities, 77, first, roots
            )
            np.testing.assert_array_equal(nodes, reference[0])
            np.testing.assert_array_equal(offsets, reference[1])
            assert pass_sizes == (expected if path == "numpy" else [])

    def test_budget_follows_the_mean_set_size(self, monkeypatch, pass_sizes):
        """Later passes hold ``_PASS_PAIRS`` ÷ the mean members so far."""
        monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
        line = SocialGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(kernels, "_PASS_FLOOR", 4)
        monkeypatch.setattr(kernels, "_PASS_PAIRS", 64)
        # A set rooted at 0 is {0}; one rooted at 3 is the whole path.
        roots = np.array([0] * 4 + [3] * 84, dtype=np.int64)
        sample_packed_rr_sets(line, np.ones(3), 1, 0, roots)
        # Mean 1 after the first pass: 64 sets.  Then 260 members in 68
        # sets: 64 · 68 // 260 = 16 sets, and the floor for the last 4.
        assert pass_sizes == [4, 64, 16, 4]


class TestOneChunkPerWorker:
    """Without an explicit chunk size a batch is one kernel call per
    worker: each call pays the coin thresholds and a pass's fixed costs."""

    @pytest.fixture
    def counted_calls(self, monkeypatch):
        """Count kernel calls, in forked pool workers too."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX platforms
            pytest.skip("counting calls in pool workers needs fork")
        calls = context.Value("i", 0)
        sample = kernels.sample_packed_rr_sets

        def counting(*args):
            with calls.get_lock():
                calls.value += 1
            return sample(*args)

        monkeypatch.setattr(kernels, "sample_packed_rr_sets", counting)
        return calls

    @pytest.mark.parametrize(
        "factory, calls_per_batch",
        [
            (SerialBackend, 1),
            (lambda: ThreadPoolBackend(2), 2),
            (lambda: ThreadPoolBackend(4), 4),
            (lambda: ProcessPoolBackend(2), 2),
        ],
    )
    def test_kernel_calls_per_batch(
        self, medium_graph, medium_probabilities, counted_calls, path,
        factory, calls_per_batch,
    ):
        reference = _batch(medium_graph, medium_probabilities, 19, 3000, chunk_size=7)
        counted_calls.value = 0
        with factory() as backend:
            packed = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 3000, seed=19
            )
        assert counted_calls.value == calls_per_batch
        np.testing.assert_array_equal(packed.nodes, reference.nodes)
        np.testing.assert_array_equal(packed.offsets, reference.offsets)

    def test_more_workers_than_sets(
        self, medium_graph, medium_probabilities, counted_calls
    ):
        """Empty ranges are not dispatched."""
        with ThreadPoolBackend(4) as backend:
            packed = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 3, seed=19
            )
        assert counted_calls.value == 3
        assert packed.num_sets == 3


class TestSeedStability:
    """Fixed seed ⇒ identical packed arrays on any backend and worker count."""

    def test_backends_and_worker_counts_agree(
        self, medium_graph, medium_probabilities, path
    ):
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 3000, seed=17
        )
        factories = [lambda: SerialBackend()]
        for workers in (1, 2, 4):
            factories.append(lambda w=workers: ThreadPoolBackend(w))
            factories.append(lambda w=workers: ProcessPoolBackend(w))
        for factory in factories:
            with factory() as backend:
                packed = backend.sample_rr_sets_packed(
                    medium_graph, medium_probabilities, 3000, seed=17
                )
            np.testing.assert_array_equal(packed.nodes, reference.nodes)
            np.testing.assert_array_equal(packed.offsets, reference.offsets)

    def test_collection_sample_matches_packed_backend_path(
        self, medium_graph, medium_probabilities, path
    ):
        direct = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 120, seed=3
        ).to_sets()
        collection = RRSetCollection.sample(
            medium_graph,
            medium_probabilities,
            120,
            seed=3,
            backend=SerialBackend(),
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
                medium_graph, medium_probabilities, 300, seed=9, chunk_size=64
            )
            backend.sample_rr_sets_packed(
                medium_graph, other, 300, seed=9, chunk_size=64
            )
            rotated = backend.sample_rr_sets_packed(
                medium_graph, medium_probabilities, 300, seed=9, chunk_size=64
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
