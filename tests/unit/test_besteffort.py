"""Unit tests for repro.core.besteffort."""

import sys
import threading

import numpy as np
import pytest

from reference.besteffort import BestEffortKeywordIM
from reference.bounds import PrecomputationBound
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


class TestOracleCounters:
    def test_count_walks_and_memo_hits_outside_the_answer(self, setup):
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, seed=0)
        assert engine.oracle_counters() == {
            "oracle_explores": 0.0,
            "oracle_memo_hits": 0.0,
        }
        first = engine.query(GAMMA, 5)
        once = engine.oracle_counters()
        assert once["oracle_explores"] > 0 and once["oracle_memo_hits"] > 0
        # A repeated query does the same oracle work and gives the same
        # answer; the counters never reach the result's statistics.
        second = engine.query(GAMMA, 5)
        assert engine.oracle_counters() == {
            key: 2 * value for key, value in once.items()
        }
        assert second == first
        assert not any(key.startswith("oracle") for key in first.statistics)

    def test_concurrent_queries_lose_no_count(self, setup):
        """Queries on threads (more than cores, switching often) add up
        to exactly the per-query counts."""
        _graph, weights, bound = setup
        engine = BestEffortKeywordIM(weights, bound, num_samples=20, seed=0)
        engine.query(GAMMA, 3)
        once = engine.oracle_counters()
        threads_count, queries = 6, 4

        def work():
            for _ in range(queries):
                engine.query(GAMMA, 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = 1 + threads_count * queries
        assert engine.oracle_counters() == {
            key: total * value for key, value in once.items()
        }
