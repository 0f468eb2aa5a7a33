"""Unit tests for repro.propagation.ic."""

import numpy as np
import pytest

from reference.cascade import simulate_cascade
from repro.propagation.ic import IndependentCascade
from repro.utils.validation import ValidationError


class TestSimulateCascade:
    def test_deterministic_edges_fire(self, line_graph):
        trace = simulate_cascade(line_graph, np.ones(3), [0], seed=0)
        assert trace.activated == {0, 1, 2, 3}
        assert trace.spread == 4

    def test_zero_probability_stops(self, line_graph):
        trace = simulate_cascade(line_graph, np.zeros(3), [0], seed=0)
        assert trace.activated == {0}

    def test_seeds_always_active(self, line_graph):
        trace = simulate_cascade(line_graph, np.zeros(3), [1, 3], seed=0)
        assert trace.activated == {1, 3}
        assert trace.seeds == (1, 3)

    def test_trace_records_activation_edges(self, line_graph):
        trace = simulate_cascade(
            line_graph, np.ones(3), [0], seed=0, record_trace=True
        )
        assert [(u, v) for _e, u, v in trace.activation_edges] == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]

    def test_trace_empty_without_flag(self, line_graph):
        trace = simulate_cascade(line_graph, np.ones(3), [0], seed=0)
        assert trace.activation_edges == []

    def test_empty_seed_set_rejected(self, line_graph):
        with pytest.raises(ValidationError, match="empty"):
            simulate_cascade(line_graph, np.ones(3), [], seed=0)

    def test_duplicate_seed_rejected(self, line_graph):
        with pytest.raises(ValidationError, match="duplicate"):
            simulate_cascade(line_graph, np.ones(3), [0, 0], seed=0)

    def test_out_of_range_seed_rejected(self, line_graph):
        with pytest.raises(ValidationError):
            simulate_cascade(line_graph, np.ones(3), [7], seed=0)

    def test_deterministic_given_seed(self, medium_graph, medium_probabilities):
        a = simulate_cascade(medium_graph, medium_probabilities, [0, 5], seed=3)
        b = simulate_cascade(medium_graph, medium_probabilities, [0, 5], seed=3)
        assert a.activated == b.activated


class TestVectorizedKernel:
    """The frontier-batched kernel: same model, batched coins."""

    def test_trace_edges_are_consistent(self, medium_graph, medium_probabilities):
        trace = simulate_cascade(
            medium_graph,
            medium_probabilities,
            [0, 5],
            seed=4,
            record_trace=True,
        )
        seen = set(trace.seeds)
        for edge_id, source, target in trace.activation_edges:
            assert medium_graph.out_targets[edge_id] == target
            assert source in seen  # sources activate before their targets
            assert target not in trace.seeds
            seen.add(target)
        assert seen == trace.activated


class TestIndependentCascade:
    def test_shape_validation(self, line_graph):
        with pytest.raises(ValidationError):
            IndependentCascade(line_graph, np.ones(2))

    def test_probability_range_validation(self, line_graph):
        with pytest.raises(ValidationError):
            IndependentCascade(line_graph, np.array([0.5, 1.5, 0.5]))

    def test_estimate_matches_closed_form_on_line(self, line_graph):
        # σ({0}) = 1 + p + p² + p³ for a 3-edge path with probability p.
        p = 0.5
        cascade = IndependentCascade(line_graph, np.full(3, p))
        estimate = cascade.estimate_spread([0], num_samples=4000, seed=0)
        exact = 1 + p + p**2 + p**3
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_estimate_on_diamond(self, diamond_graph):
        # σ({0}) = 1 + 2p + P(3 reached); p=1 → all 4 nodes.
        cascade = IndependentCascade(diamond_graph, np.ones(4))
        assert cascade.estimate_spread([0], num_samples=10, seed=0) == 4.0

    def test_monotone_in_seed_set(self, medium_graph, medium_probabilities):
        cascade = IndependentCascade(medium_graph, medium_probabilities)
        small = cascade.estimate_spread([0], num_samples=300, seed=2)
        large = cascade.estimate_spread([0, 1, 2], num_samples=300, seed=2)
        assert large >= small
