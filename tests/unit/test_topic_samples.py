"""Unit tests for repro.core.topic_samples."""

import numpy as np
import pytest

from repro.core.besteffort import BestEffortKeywordIM
from repro.core.bounds import PrecomputationBound
from repro.core.topic_samples import TopicSampleIndex
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def setup():
    from repro.graph.generators import preferential_attachment_digraph

    graph = preferential_attachment_digraph(120, 3, seed=21)
    weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=22)
    index = TopicSampleIndex(
        weights, num_samples=16, max_k=8, num_rr_sets=600, seed=23
    )
    best_effort = BestEffortKeywordIM(
        weights, PrecomputationBound(weights), seed=24
    )
    return graph, weights, index, best_effort


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
        _graph, _weights, index, best_effort = setup
        # Force fallback with a zero tolerance.
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        result = index.query(gamma, 4, best_effort=best_effort, gap_tolerance=0.0)
        assert result.statistics["answered_from_sample"] == 0.0
        assert len(result.seeds) == 4

    def test_fallback_without_engine_raises(self, setup):
        _graph, _weights, index, _be = setup
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValidationError, match="best-effort"):
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
        _graph, _weights, index, best_effort = setup
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        result = index.query(
            gamma, 2, best_effort=best_effort, gap_tolerance=0.0
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

        _graph, weights, _index, best_effort = setup
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
        result = index.query(gamma, 3, best_effort=best_effort)
        assert len(result.seeds) == 3
        assert result.statistics["answered_from_sample"] == 1.0
