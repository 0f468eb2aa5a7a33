"""Contracts of the optional compiled core and the coin it shares.

The kernel's own contract — exact coin, canonical order, distribution,
chunk and backend invariance — is in ``test_rr_kernels.py``, on both
paths.  This module covers what the compiled core adds:

* splitmix64 is counter-based: output ``c`` is ``mix(key + c·γ)`` however
  the counters are batched, which is what lets the C core and NumPy draw
  the same coins;
* the compiled core and the NumPy sampler are **bitwise** identical, all
  the way up to service ``deterministic_form()`` bytes;
* contiguous set-range partitions — the cluster coordinator's shard
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
from repro.backend.base import draw_batch_key, rr_chunk_plan
from repro.cluster import partition_contiguous
from repro.graph.digraph import SocialGraph
from repro.propagation import native
from repro.propagation.kernels import sample_packed_rr_sets
from repro.propagation.native import (
    HAVE_COMPILED,
    kernel_provenance,
    splitmix64,
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


def _coins(key: int, counters) -> np.ndarray:
    """The kernel's 53-bit coins as doubles in ``[0, 1)``."""
    z = splitmix64(key, np.asarray(counters, dtype=np.uint64).copy())
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TestSplitMix64Stream:
    """splitmix64 as a counter-indexed stream: output ``c`` (1-based in the
    textbook sequential form) is ``mix(key + c·γ)``."""

    def test_matches_scalar_reference(self):
        np.testing.assert_array_equal(
            _coins(0xDEADBEEF, np.arange(1, 33)),
            _reference_splitmix64(0xDEADBEEF, 32),
        )

    def test_call_size_invariance(self):
        """Counters 0‥99 at once == 7 + 13 + 80 (the C vs NumPy seam)."""
        whole = _coins(424242, np.arange(100))
        parts = np.concatenate(
            [
                _coins(424242, np.arange(0, 7)),
                _coins(424242, np.arange(7, 20)),
                _coins(424242, np.arange(20, 100)),
            ]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_unit_interval(self):
        draws = _coins(7, np.arange(4096))
        assert draws.min() >= 0.0
        assert draws.max() < 1.0
        # 53-bit mantissas actually spread over the interval
        assert draws.std() > 0.2

    def test_zero_count(self):
        assert _coins(1, np.arange(0)).size == 0


class TestProvenance:
    def test_provenance_matches_dispatch(self):
        assert kernel_provenance() in ("compiled", "numpy")
        expected = "compiled" if use_compiled() else "numpy"
        assert kernel_provenance() == expected

    def test_forced_fallback_flag(self, monkeypatch):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
        assert not use_compiled()
        assert kernel_provenance() == "numpy"

    def test_env_knob_forces_fallback_in_fresh_interpreter(self):
        """``REPRO_NATIVE=0`` downgrades provenance without code changes,
        and importing the package prints nothing."""
        env = dict(os.environ, REPRO_NATIVE="0")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro, repro.cli;"
                "from repro.propagation.native import kernel_provenance;"
                "sys.stderr.write(kernel_provenance())",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout == ""
        assert result.stderr.strip() == "numpy"


class TestCompiledFallbackIdentity:
    """The compiled core and the NumPy sampler emit the same bytes."""

    def _chunk(self, graph, probabilities, forced, monkeypatch, first=0):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
        roots = np.arange(2500, dtype=np.int64) * 7 % graph.num_nodes
        return sample_packed_rr_sets(graph, probabilities, 5, first, roots)

    @needs_compiled
    @pytest.mark.parametrize("first", [0, 4099])
    def test_chunk_draws_identical(
        self, medium_graph, medium_probabilities, monkeypatch, first
    ):
        compiled = self._chunk(
            medium_graph, medium_probabilities, False, monkeypatch, first
        )
        fallback = self._chunk(
            medium_graph, medium_probabilities, True, monkeypatch, first
        )
        np.testing.assert_array_equal(compiled[0], fallback[0])
        np.testing.assert_array_equal(compiled[1], fallback[1])

    @needs_compiled
    def test_dense_chunk_draws_identical(self, monkeypatch):
        """Large RR sets: many levels and many gather rounds per pass."""
        rng = np.random.default_rng(12)
        edges = [
            (int(source), target)
            for target in range(300)
            for source in rng.choice(np.delete(np.arange(300), target), 6, False)
        ]
        graph = SocialGraph.from_edges(300, edges)
        dense = rng.uniform(0.1, 0.5, graph.num_edges)
        compiled = self._chunk(graph, dense, False, monkeypatch)
        fallback = self._chunk(graph, dense, True, monkeypatch)
        assert compiled[0].size > 50 * 2500
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
                    medium_graph, medium_probabilities, 3000, seed=17
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
                medium_graph, medium_probabilities, 800, seed=23
            )
            results.append(collection.greedy_max_cover(8))
        assert results[0][0] == results[1][0]  # seed lists, in order
        assert results[0][1] == results[1][1]  # spreads, exactly


class TestShardPartitionStability:
    """Contiguous set ranges — the cluster seam — recombine exactly.

    This simulates what :class:`repro.cluster.coordinator.ClusterCoordinator`
    does for the distributed cover path: one batch key, the chunk plan
    split into contiguous ranges per shard, each range sampled
    independently, results concatenated in plan order.  At any shard count
    the bytes must equal the serial backend's batch.
    """

    def _recombined(self, graph, probabilities, seed, roots, shards):
        rng = np.random.default_rng(seed)
        key = draw_batch_key(rng)
        if roots is None:
            roots = rng.integers(0, graph.num_nodes, size=3000)
        plan = rr_chunk_plan(3000, 512)
        payloads = []
        for low, high in partition_contiguous(len(plan), shards):
            if low == high:
                continue
            start, stop = plan[low][0], plan[high - 1][1]
            payloads.append(
                sample_packed_rr_sets(
                    graph, probabilities, key, start, roots[start:stop]
                )
            )
        return PackedRRSets.from_chunks(graph.num_nodes, payloads)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_partitioned_sampling_matches_serial(
        self, medium_graph, medium_probabilities, shards
    ):
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 3000, seed=21
        )
        recombined = self._recombined(
            medium_graph, medium_probabilities, 21, None, shards
        )
        np.testing.assert_array_equal(recombined.nodes, reference.nodes)
        np.testing.assert_array_equal(recombined.offsets, reference.offsets)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_partitioned_sampling_with_root_cycle(
        self, medium_graph, medium_probabilities, shards
    ):
        """The weighted/targeted path hands each shard its slice of roots."""
        root_cycle = [3, 1, 4, 1, 5, 9, 2, 6]
        reference = SerialBackend().sample_rr_sets_packed(
            medium_graph, medium_probabilities, 3000, seed=34, roots=root_cycle
        )
        recombined = self._recombined(
            medium_graph,
            medium_probabilities,
            34,
            np.resize(root_cycle, 3000),
            shards,
        )
        np.testing.assert_array_equal(recombined.nodes, reference.nodes)
        np.testing.assert_array_equal(recombined.offsets, reference.offsets)


class TestSureEdges:
    """With 0/1 probabilities the coins are irrelevant: every path and
    every key gives the same packed arrays and the same greedy seeds."""

    @pytest.fixture(scope="class")
    def sure_graph(self):
        return SocialGraph.from_edges(
            6, [(0, 2), (1, 2), (2, 4), (3, 4), (4, 5), (0, 5)]
        )

    @pytest.mark.parametrize("forced", [False, True], ids=["default", "numpy"])
    def test_packed_arrays_identical_on_sure_edges(
        self, sure_graph, monkeypatch, forced
    ):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
        batches = [
            SerialBackend().sample_rr_sets_packed(
                sure_graph, np.ones(6), 60, seed=seed, roots=list(range(6))
            )
            for seed in (2, 3)
        ]
        np.testing.assert_array_equal(batches[0].nodes, batches[1].nodes)
        np.testing.assert_array_equal(batches[0].offsets, batches[1].offsets)
        assert batches[0].set_nodes(5).tolist() == [5, 0, 4, 2, 3, 1]

    def test_greedy_seeds_identical_on_sure_edges(self, sure_graph):
        selections = [
            RRSetCollection.sample(
                sure_graph, np.ones(6), 60, seed=seed, roots=list(range(6))
            ).greedy_max_cover(2)
            for seed in (2, 3)
        ]
        assert selections[0] == selections[1]
        assert selections[0][0] == [0, 1]


class TestServiceBytesAcrossPaths:
    """``deterministic_form`` bytes survive the compiled/NumPy switch."""

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
            TargetedInfluencersRequest,
            deterministic_form,
        )

        forms = []
        for forced in (False, True):
            monkeypatch.setattr(native, "_FORCED_FALLBACK", forced)
            config = OctopusConfig(
                num_sketches=20,
                num_topic_samples=3,
                topic_sample_rr_sets=120,
                seed=91,
            )
            service = OctopusService(
                Octopus.from_dataset(small_dataset, config=config)
            )
            responses = [
                service.execute(FindInfluencersRequest("data mining", k=3)),
                service.execute(
                    TargetedInfluencersRequest("data mining", k=2, num_sets=900)
                ),
            ]
            assert all(response.ok for response in responses)
            forms.append([deterministic_form(r) for r in responses])
        assert forms[0] == forms[1]
