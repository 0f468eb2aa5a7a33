"""Unit tests for repro.core.topic_samples."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from repro.backend import ProcessPoolBackend, SerialBackend, ThreadPoolBackend
from repro.core.topic_samples import TopicSampleIndex, ris_seed_prefixes
from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError
from tests.property.test_spread_properties import exact_spread


@pytest.fixture(scope="module")
def setup():
    from repro.graph.generators import preferential_attachment_digraph

    graph = preferential_attachment_digraph(120, 3, seed=21)
    weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=22)
    index = TopicSampleIndex(
        weights, num_samples=16, max_k=8, num_rr_sets=600, seed=23
    )
    def ris_fallback(gamma, k):
        seeds, spreads = ris_seed_prefixes(
            SerialBackend(),
            graph,
            weights.edge_probabilities(gamma),
            k,
            600,
            np.random.default_rng(24),
        )
        return IMResult(seeds=seeds, spread=spreads[-1], statistics={})

    return graph, weights, index, ris_fallback


class TestConstruction:
    def test_sample_count(self, setup):
        _graph, _weights, index, _be = setup
        assert len(index) == 16

    def test_samples_have_nested_seed_prefixes(self, setup):
        _graph, _weights, index, _be = setup
        for sample in index.samples:
            for k in range(1, len(sample.seeds_by_k)):
                assert sample.seeds_by_k[k][:-1] == sample.seeds_by_k[k - 1]

    def test_seeds_accessor_clamps_k(self, setup):
        _graph, _weights, index, _be = setup
        sample = index.samples[0]
        longest = sample.seeds(999)
        assert longest == sample.seeds_by_k[-1]


class TestNearest:
    def test_nearest_is_closest_in_l1(self, setup):
        _graph, _weights, index, _be = setup
        gamma = index.samples[3].gamma
        sample, distance = index.nearest(gamma)
        assert distance == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(sample.gamma, index.samples[3].gamma)

    def test_coupling_gap_zero_at_sample(self, setup):
        _graph, _weights, index, _be = setup
        sample = index.samples[0]
        assert index.coupling_gap(sample.gamma, sample) == 0.0

    def test_coupling_gap_capped_at_n(self, setup):
        graph, _weights, index, _be = setup
        a = np.array([1.0, 0.0, 0.0, 0.0])
        sample, _d = index.nearest(np.array([0.0, 0.0, 0.0, 1.0]))
        assert index.coupling_gap(a, sample) <= graph.num_nodes


class TestQuery:
    def test_exact_sample_hit_answers_directly(self, setup):
        _graph, _weights, index, _be = setup
        gamma = index.samples[5].gamma
        result = index.query(gamma, 4, gap_tolerance=0.05)
        assert result.statistics["answered_from_sample"] == 1.0
        assert result.seeds == index.samples[5].seeds(4)
        assert result.evaluations == 0

    def test_far_query_falls_back(self, setup):
        _graph, _weights, index, fallback = setup
        # Force fallback with a zero tolerance.
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        result = index.query(gamma, 4, fallback=fallback, gap_tolerance=0.0)
        assert result.statistics["answered_from_sample"] == 0.0
        assert len(result.seeds) == 4

    def test_fallback_without_engine_raises(self, setup):
        _graph, _weights, index, _be = setup
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValidationError, match="no fallback"):
            index.query(gamma, 4, gap_tolerance=0.0)

    def test_k_above_max_k_rejected(self, setup):
        _graph, _weights, index, _be = setup
        with pytest.raises(ValidationError, match="max_k"):
            index.query(np.array([0.25, 0.25, 0.25, 0.25]), 100)

    def test_direct_answer_carries_spread_bounds(self, setup):
        _graph, _weights, index, _be = setup
        gamma = index.samples[2].gamma
        result = index.query(gamma, 3, gap_tolerance=0.1)
        stats = result.statistics
        assert stats["spread_lower_bound"] <= result.spread
        assert stats["spread_upper_bound"] >= result.spread

    def test_statistics_record_distance(self, setup):
        _graph, _weights, index, fallback = setup
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        result = index.query(
            gamma, 2, fallback=fallback, gap_tolerance=0.0
        )
        assert "l1_distance" in result.statistics
        assert "coupling_gap" in result.statistics


class TestParallelBuild:
    def _fingerprint(self, index):
        return [
            (
                sample.gamma.tolist(),
                sample.seeds_by_k,
                sample.spreads_by_k,
            )
            for sample in index.samples
        ]

    def test_identical_across_backends_and_worker_counts(self, setup):
        from repro.backend import ProcessPoolBackend, SerialBackend, ThreadPoolBackend

        _graph, weights, _index, _be = setup
        reference = TopicSampleIndex(
            weights,
            num_samples=6,
            max_k=4,
            num_rr_sets=200,
            seed=51,
            backend=SerialBackend(),
        )
        for make in (lambda: ThreadPoolBackend(4), lambda: ProcessPoolBackend(2)):
            with make() as backend:
                built = TopicSampleIndex(
                    weights,
                    num_samples=6,
                    max_k=4,
                    num_rr_sets=200,
                    seed=51,
                    backend=backend,
                )
            assert self._fingerprint(built) == self._fingerprint(reference)

    def test_parallel_build_answers_queries(self, setup):
        from repro.backend import ThreadPoolBackend

        _graph, weights, _index, fallback = setup
        with ThreadPoolBackend(3) as backend:
            index = TopicSampleIndex(
                weights,
                num_samples=8,
                max_k=4,
                num_rr_sets=300,
                seed=52,
                backend=backend,
            )
        gamma = index.samples[0].gamma
        result = index.query(gamma, 3, fallback=fallback)
        assert len(result.seeds) == 3
        assert result.statistics["answered_from_sample"] == 1.0


def _index_digest(index):
    """sha256 of every sample's γ, seed prefixes and spreads, as JSON."""
    payload = [
        (sample.gamma.tolist(), sample.seeds_by_k, sample.spreads_by_k)
        for sample in index.samples
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestRISSeedPrefixes:
    """The one RR answer: offline samples and online misses share it."""

    def test_offline_samples_are_pinned(self, setup):
        """Factoring the sample build into ris_seed_prefixes kept its bytes:
        this digest was computed by the build it replaced."""
        _graph, weights, _index, _fb = setup
        index = TopicSampleIndex(
            weights, num_samples=6, max_k=8, num_rr_sets=700, seed=61
        )
        assert _index_digest(index) == (
            "0735469a8e55bc758ae2dca3d6432206356cf0fd0c6fd207f4fb15303e3ffcd7"
        )

    def test_identical_on_every_backend(self, setup):
        graph, weights, _index, _fb = setup
        probabilities = weights.edge_probabilities(np.array([0.4, 0.3, 0.2, 0.1]))

        def answer(backend):
            return ris_seed_prefixes(
                backend, graph, probabilities, 6, 900, np.random.default_rng(71)
            )

        reference = answer(SerialBackend())
        for make in (
            lambda: ThreadPoolBackend(2),
            lambda: ThreadPoolBackend(3),
            lambda: ThreadPoolBackend(4),
            lambda: ProcessPoolBackend(2),
        ):
            with make() as backend:
                assert answer(backend) == reference

    def test_prefixes_nest_and_spreads_grow(self, setup):
        graph, weights, _index, _fb = setup
        probabilities = weights.edge_probabilities(np.array([0.1, 0.2, 0.3, 0.4]))

        def answer(k):
            return ris_seed_prefixes(
                SerialBackend(), graph, probabilities, k, 800,
                np.random.default_rng(5),
            )

        seeds5, spreads5 = answer(5)
        seeds10, spreads10 = answer(10)
        assert seeds10[:5] == seeds5 and spreads10[:5] == spreads5
        assert spreads10 == sorted(spreads10)
        assert all(type(value) is float for value in spreads10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exact_enumeration(self, k):
        """On 12 uncertain edges: the reported (held-out) spread lies within
        its sampling interval of the seeds' exact spread, and the seeds
        reach (1 − 1/e − 0.1)·OPT."""
        edges = [
            (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5),
            (5, 0), (6, 4), (6, 7), (7, 2), (1, 6), (2, 5),
        ]
        graph = SocialGraph.from_edges(8, edges)
        probabilities = np.random.default_rng(3).uniform(
            0.2, 0.7, graph.num_edges
        )
        num_rr_sets = 6000
        seeds, spreads = ris_seed_prefixes(
            SerialBackend(), graph, probabilities, k, num_rr_sets,
            np.random.default_rng(17),
        )
        exact = exact_spread(graph, probabilities, seeds)
        held_out = num_rr_sets // 2
        share = exact / graph.num_nodes
        half_width = 4.0 * graph.num_nodes * math.sqrt(
            share * (1.0 - share) / held_out
        )
        assert abs(spreads[-1] - exact) <= half_width
        optimum = max(
            exact_spread(graph, probabilities, list(subset))
            for subset in itertools.combinations(range(graph.num_nodes), k)
        )
        assert exact >= (1.0 - 1.0 / math.e - 0.1) * optimum
