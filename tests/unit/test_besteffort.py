"""Unit tests for repro.core.besteffort."""

import numpy as np
import pytest

from repro.core.besteffort import BestEffortKeywordIM
from repro.core.bounds import PrecomputationBound
from repro.im.ris import ris_im
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def setup():
    from repro.graph.generators import preferential_attachment_digraph

    graph = preferential_attachment_digraph(150, 3, seed=7)
    weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=8)
    estimator = PrecomputationBound(weights, grid=4)
    return graph, weights, estimator


GAMMA = np.array([0.6, 0.2, 0.1, 0.1])


class TestQuery:
    def test_returns_k_seeds(self, setup):
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=0)
        result = engine.query(GAMMA, 5)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5
        assert result.spread > 0

    def test_prunes_most_candidates(self, setup):
        graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=0)
        result = engine.query(GAMMA, 5)
        assert result.statistics["exact_evaluations"] < graph.num_nodes

    def test_quality_close_to_direct_ris(self, setup):
        graph, weights, bound = setup
        probabilities = weights.edge_probabilities(GAMMA)
        direct = ris_im(graph, probabilities, 5, num_sets=4000, seed=1)
        engine = BestEffortKeywordIM(weights, bound, seed=2)
        result = engine.query(GAMMA, 5)
        # Compare both seed sets on an independent estimator.
        from repro.propagation.estimators import MonteCarloSpreadEstimator

        judge = MonteCarloSpreadEstimator(
            graph, probabilities, num_samples=800, seed=3
        )
        assert judge.spread(result.seeds) >= 0.85 * judge.spread(direct.seeds)

    def test_warm_start_prunes_and_preserves_quality(self, setup):
        graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=4)
        baseline = engine.query(GAMMA, 5)
        warm = engine.query(GAMMA, 5, warm_start=baseline.seeds)
        assert warm.statistics["pruned_by_warm_start"] >= 0
        assert warm.spread >= 0.8 * baseline.spread

    def test_mc_oracle_works(self, setup):
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, num_samples=50, seed=6)
        result = engine.query(GAMMA, 2)
        assert len(result.seeds) == 2

    def test_invalid_gamma(self, setup):
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=0)
        with pytest.raises(ValidationError):
            engine.query(np.array([0.5, 0.5, 0.5, 0.5]), 3)

    def test_invalid_k(self, setup):
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=0)
        with pytest.raises(ValidationError):
            engine.query(GAMMA, 0)

    def test_bad_bound_shape_detected(self, setup):
        _graph, weights, _bound = setup

        class BadBound:
            def bounds(self, gamma):
                return np.ones(3)

        engine = BestEffortKeywordIM(weights, BadBound(), seed=0)
        with pytest.raises(ValidationError, match="shape"):
            engine.query(GAMMA, 2)
