"""Contracts specific to the ``native`` RR kernel.

The shared kernel contracts — exact world-enumeration distribution, seed
stability across serial/threads/processes at workers 1/2/4 — run over
``native`` in ``test_rr_kernels.py`` alongside the other kernels.  This
module covers what is unique to ``native``:

* the splitmix64 coin stream is counter-based, so call-size interleaving
  (per level in NumPy, per edge in C) cannot change the draws;
* the compiled extension and the pure-Python fallback are draw-for-draw
  **bitwise** identical, all the way up to service
  ``deterministic_form()`` bytes;
* contiguous chunk-range partitions — the cluster coordinator's shard
  seam — concatenate to the serial batch at 1/2/4 shards;
* the compiled greedy cover-update preserves the exact selection and
  tie-break sequence;
* kernel provenance strings and the ``REPRO_NATIVE`` escape hatch.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backend import SerialBackend
from repro.backend.base import rr_chunk_plan
from repro.cluster import partition_contiguous
from repro.graph.digraph import SocialGraph
from repro.propagation import native
from repro.propagation.native import (
    HAVE_COMPILED,
    SplitMix64Stream,
    kernel_provenance,
    sample_rr_chunk,
    use_compiled,
)
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="compiled _rrnative extension not built in this environment",
)


def _reference_splitmix64(seed: int, count: int) -> list:
    """Scalar splitmix64 (Steele, Lea & Flood 2014), straight off the paper."""
    mask = (1 << 64) - 1
    state = seed
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0**-53)
    return out


class TestSplitMix64Stream:
    def test_matches_scalar_reference(self):
        stream = SplitMix64Stream(0xDEADBEEF)
        np.testing.assert_array_equal(
            stream.random(32), _reference_splitmix64(0xDEADBEEF, 32)
        )

    def test_call_size_invariance(self):
        """Drawing 100 at once == drawing 7 + 13 + 80 (C vs NumPy seam)."""
        whole = SplitMix64Stream(424242).random(100)
        split = SplitMix64Stream(424242)
        parts = np.concatenate(
            [split.random(7), split.random(13), split.random(80)]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_unit_interval(self):
        draws = SplitMix64Stream(7).random(4096)
        assert draws.min() >= 0.0
        assert draws.max() < 1.0
        # 53-bit mantissas actually spread over the interval
        assert draws.std() > 0.2

    def test_zero_count(self):
        assert SplitMix64Stream(1).random(0).size == 0


class TestProvenance:
    def test_provenance_matches_dispatch(self):
        assert kernel_provenance() in ("native-compiled", "native-fallback")
        expected = "native-compiled" if use_compiled() else "native-fallback"
        assert kernel_provenance() == expected

    def test_forced_fallback_flag(self, monkeypatch):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
        assert not use_compiled()
        assert kernel_provenance() == "native-fallback"

    def test_env_knob_forces_fallback_in_fresh_interpreter(self):
        """``REPRO_NATIVE=0`` downgrades provenance without code changes."""
        env = dict(os.environ, REPRO_NATIVE="0")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.propagation.native import kernel_provenance;"
                "print(kernel_provenance())",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "native-fallback"


class TestCompiledFallbackIdentity:
    """The compiled core and the NumPy twin emit the same bytes."""

    def _chunk(self, graph, probabilities, forced, monkeypatch, roots=None):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
        rng = np.random.default_rng(5)
        return sample_rr_chunk(graph, probabilities, 200, rng, roots)

    @needs_compiled
    def test_chunk_draws_identical(
        self, medium_graph, medium_probabilities, monkeypatch
    ):
        compiled = self._chunk(
            medium_graph, medium_probabilities, False, monkeypatch
        )
        fallback = self._chunk(
            medium_graph, medium_probabilities, True, monkeypatch
        )
        np.testing.assert_array_equal(compiled[0], fallback[0])
        np.testing.assert_array_equal(compiled[1], fallback[1])

    @needs_compiled
    def test_chunk_draws_identical_with_fixed_roots(
        self, medium_graph, medium_probabilities, monkeypatch
    ):
        roots = np.arange(200, dtype=np.int64) % medium_graph.num_nodes
        compiled = self._chunk(
            medium_graph, medium_probabilities, False, monkeypatch, roots
        )
        fallback = self._chunk(
            medium_graph, medium_probabilities, True, monkeypatch, roots
        )
        np.testing.assert_array_equal(compiled[0], fallback[0])
        np.testing.assert_array_equal(compiled[1], fallback[1])

    @needs_compiled
    def test_backend_batches_identical(
        self, medium_graph, medium_probabilities, monkeypatch
    ):
        batches = []
        for forced in (False, True):
            monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
            batches.append(
                SerialBackend().sample_rr_sets_packed(
                    medium_graph,
                    medium_probabilities,
                    300,
                    seed=17,
                    kernel="native",
                )
            )
        np.testing.assert_array_equal(batches[0].nodes, batches[1].nodes)
        np.testing.assert_array_equal(batches[0].offsets, batches[1].offsets)

    @needs_compiled
    def test_greedy_selection_identical(
        self, medium_graph, medium_probabilities, monkeypatch
    ):
        """Sampling *and* the cover-update inner loop, end to end."""
        results = []
        for forced in (False, True):
            monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
            collection = RRSetCollection.sample(
                medium_graph,
                medium_probabilities,
                800,
                seed=23,
                kernel="native",
            )
            results.append(collection.greedy_max_cover(8))
        assert results[0][0] == results[1][0]  # seed lists, in order
        assert results[0][1] == results[1][1]  # spreads, exactly


class TestShardPartitionStability:
    """Contiguous chunk ranges — the cluster seam — recombine exactly.

    This simulates what :class:`repro.cluster.coordinator.ClusterCoordinator`
    does for the distributed cover path: one chunk plan, split into
    contiguous ranges per shard, each range sampled independently, results
    concatenated in plan order.  At any shard count the bytes must equal
    the serial backend's batch.
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_partitioned_sampling_matches_serial(
        self, medium_graph, medium_probabilities, shards
    ):
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph,
            medium_probabilities,
            300,
            seed=21,
            chunk_size=64,
            kernel="native",
        )
        plan = rr_chunk_plan(300, 64, np.random.SeedSequence(21), None)
        payloads = []
        for low, high in partition_contiguous(len(plan), shards):
            for count, child, chunk_roots in plan[low:high]:
                assert chunk_roots is None
                rng = np.random.default_rng(child)
                payloads.append(
                    sample_rr_chunk(
                        medium_graph, medium_probabilities, count, rng
                    )
                )
        recombined = PackedRRSets.from_chunks(
            medium_graph.num_nodes, payloads
        )
        np.testing.assert_array_equal(recombined.nodes, reference.nodes)
        np.testing.assert_array_equal(recombined.offsets, reference.offsets)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_partitioned_sampling_with_root_cycle(
        self, medium_graph, medium_probabilities, shards
    ):
        """The weighted/targeted path pre-assigns roots per chunk slice."""
        root_cycle = [3, 1, 4, 1, 5, 9, 2, 6]
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph,
            medium_probabilities,
            300,
            seed=34,
            roots=root_cycle,
            chunk_size=64,
            kernel="native",
        )
        plan = rr_chunk_plan(300, 64, np.random.SeedSequence(34), root_cycle)
        payloads = []
        for low, high in partition_contiguous(len(plan), shards):
            for count, child, chunk_roots in plan[low:high]:
                rng = np.random.default_rng(child)
                payloads.append(
                    sample_rr_chunk(
                        medium_graph,
                        medium_probabilities,
                        count,
                        rng,
                        np.asarray(chunk_roots, dtype=np.int64),
                    )
                )
        recombined = PackedRRSets.from_chunks(
            medium_graph.num_nodes, payloads
        )
        np.testing.assert_array_equal(recombined.nodes, reference.nodes)
        np.testing.assert_array_equal(recombined.offsets, reference.offsets)


class TestNativeAgreesWithVectorizedWhenDrawsCannotMatter:
    """With 0/1 probabilities the coin stream is irrelevant: both
    frontier-ordered kernels must emit byte-identical packed arrays, and
    greedy selection over them must pick the same seeds with tied spreads.
    """

    @pytest.fixture(scope="class")
    def sure_graph(self):
        return SocialGraph.from_edges(
            6, [(0, 2), (1, 2), (2, 4), (3, 4), (4, 5), (0, 5)]
        )

    def test_packed_arrays_identical_on_sure_edges(self, sure_graph):
        roots = list(range(6))
        batches = {}
        for kernel in ("vectorized", "native"):
            batches[kernel] = SerialBackend().sample_rr_sets_packed(
                sure_graph,
                np.ones(6),
                60,
                seed=2,
                roots=roots,
                kernel=kernel,
            )
        np.testing.assert_array_equal(
            batches["native"].nodes, batches["vectorized"].nodes
        )
        np.testing.assert_array_equal(
            batches["native"].offsets, batches["vectorized"].offsets
        )

    def test_greedy_seeds_identical_on_sure_edges(self, sure_graph):
        selections = {}
        for kernel in ("vectorized", "native"):
            collection = RRSetCollection.sample(
                sure_graph,
                np.ones(6),
                60,
                seed=2,
                roots=list(range(6)),
                kernel=kernel,
            )
            selections[kernel] = collection.greedy_max_cover(2)
        assert selections["native"] == selections["vectorized"]

    def test_blocked_edges_give_singletons(self, sure_graph):
        rng = np.random.default_rng(0)
        nodes, offsets = sample_rr_chunk(
            sure_graph,
            np.zeros(6),
            6,
            rng,
            np.arange(6, dtype=np.int64),
        )
        np.testing.assert_array_equal(nodes, np.arange(6))
        np.testing.assert_array_equal(offsets, np.arange(7))

    def test_single_node_graph(self):
        graph = SocialGraph.from_edges(1, [])
        rng = np.random.default_rng(3)
        nodes, offsets = sample_rr_chunk(
            graph, np.empty(0), 5, rng, np.zeros(5, dtype=np.int64)
        )
        np.testing.assert_array_equal(nodes, np.zeros(5, dtype=np.int64))
        np.testing.assert_array_equal(offsets, np.arange(6))


class TestServiceBytesAcrossPaths:
    """``deterministic_form`` bytes survive the compiled/fallback switch."""

    @pytest.fixture(scope="class")
    def small_dataset(self):
        from repro.datasets.citation import CitationNetworkGenerator

        return CitationNetworkGenerator(
            num_researchers=120,
            citations_per_paper=3,
            papers_per_author=2,
            seed=11,
        ).generate()

    @needs_compiled
    def test_influencer_response_bytes_identical(
        self, small_dataset, monkeypatch
    ):
        from repro.core.octopus import Octopus, OctopusConfig
        from repro.service import (
            FindInfluencersRequest,
            OctopusService,
            deterministic_form,
        )

        forms = []
        for forced in (False, True):
            monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
            config = OctopusConfig(
                num_sketches=20,
                num_topic_samples=3,
                topic_sample_rr_sets=120,
                oracle_samples=10,
                rr_kernel="native",
                seed=91,
            )
            service = OctopusService(
                Octopus.from_dataset(small_dataset, config=config)
            )
            response = service.execute(
                FindInfluencersRequest("data mining", k=3)
            )
            assert response.ok
            forms.append(deterministic_form(response))
        assert forms[0] == forms[1]
