"""Unit tests for repro.core.bounds (walk sums and the precomputation bound)."""

import numpy as np
import pytest

from reference.bounds import PrecomputationBound, walk_sum_bounds
from repro.propagation.ic import IndependentCascade
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def weights_and_truth(medium_graph_module):
    graph = medium_graph_module
    weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=17)
    return graph, weights


@pytest.fixture(scope="module")
def medium_graph_module():
    from repro.graph.generators import preferential_attachment_digraph

    return preferential_attachment_digraph(150, 3, seed=99)


GAMMAS = [
    np.array([1.0, 0.0, 0.0, 0.0]),
    np.array([0.7, 0.1, 0.1, 0.1]),
    np.array([0.25, 0.25, 0.25, 0.25]),
    np.array([0.0, 0.5, 0.5, 0.0]),
]


def _exact_singleton_spreads(graph, probabilities, nodes, seed=0):
    cascade = IndependentCascade(graph, probabilities)
    return {
        node: cascade.estimate_spread([node], num_samples=400, seed=seed)
        for node in nodes
    }


class TestWalkSumBounds:
    def test_line_graph_geometric_series(self, line_graph):
        bounds = walk_sum_bounds(line_graph, np.full(3, 0.5))
        # node 0: 1 + 0.5(1 + 0.5(1 + 0.5)) = 1.875
        assert bounds[0] == pytest.approx(1.875)
        assert bounds[3] == pytest.approx(1.0)

    def test_upper_bounds_exact_spread(self, line_graph):
        p = 0.5
        bounds = walk_sum_bounds(line_graph, np.full(3, p))
        exact = 1 + p + p**2 + p**3
        assert bounds[0] >= exact - 1e-9

    def test_cap_respected_on_cycle(self):
        from repro.graph.digraph import SocialGraph

        graph = SocialGraph.from_edges(2, [(0, 1), (1, 0)])
        bounds = walk_sum_bounds(graph, np.ones(2))
        assert np.all(bounds <= 2.0 + 1e-9)

    def test_monotone_in_probabilities(self, medium_graph):
        low = walk_sum_bounds(medium_graph, np.full(medium_graph.num_edges, 0.02))
        high = walk_sum_bounds(medium_graph, np.full(medium_graph.num_edges, 0.1))
        assert np.all(high >= low - 1e-12)

    def test_shape_validation(self, line_graph):
        with pytest.raises(ValidationError):
            walk_sum_bounds(line_graph, np.ones(2))


class TestSoundness:
    """The estimator must upper-bound the Monte-Carlo spread."""

    @pytest.mark.parametrize("gamma_index", range(len(GAMMAS)))
    def test_precomputation_sound(self, weights_and_truth, gamma_index):
        graph, weights = weights_and_truth
        gamma = GAMMAS[gamma_index]
        estimator = PrecomputationBound(weights, grid=4)
        bounds = estimator.bounds(gamma)
        probabilities = weights.edge_probabilities(gamma)
        sample_nodes = list(range(0, graph.num_nodes, 17))
        exact = _exact_singleton_spreads(graph, probabilities, sample_nodes)
        for node, spread in exact.items():
            assert bounds[node] >= spread - 0.35 * spread**0.5 - 0.5, (
                f"precomputation bound {bounds[node]:.2f} below exact "
                f"{spread:.2f} for node {node}"
            )


class TestTightnessOrdering:
    def test_pure_topic_precomputation_tighter_than_envelope(
        self, weights_and_truth
    ):
        _graph, weights = weights_and_truth
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        mixed = np.array([0.25, 0.25, 0.25, 0.25])
        estimator = PrecomputationBound(weights, grid=4)
        assert estimator.bounds(pure).mean() <= estimator.bounds(mixed).mean() + 1e-9


class TestInterfaces:
    def test_precomputation_index_size(self, weights_and_truth):
        _graph, weights = weights_and_truth
        estimator = PrecomputationBound(weights, grid=2)
        assert estimator.index_size == 4 * 3 * weights.graph.num_nodes

    def test_wrong_gamma_size_rejected(self, weights_and_truth):
        _graph, weights = weights_and_truth
        estimator = PrecomputationBound(weights, grid=2)
        with pytest.raises(ValidationError):
            estimator.bounds(np.array([0.5, 0.5]))

    def test_all_bounds_at_least_one(self, weights_and_truth):
        _graph, weights = weights_and_truth
        gamma = np.array([0.25, 0.25, 0.25, 0.25])
        assert np.all(PrecomputationBound(weights, grid=2).bounds(gamma) >= 1.0)
