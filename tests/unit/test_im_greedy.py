"""Unit tests for repro.im.greedy (CELF lazy greedy)."""

import numpy as np
import pytest

from reference.estimators import RRSetSpreadEstimator
from reference.greedy import greedy_im
from repro.utils.validation import ValidationError


class TestGreedyIM:
    def test_picks_obvious_hub(self, star_graph):
        result = greedy_im(star_graph, np.ones(5), 1, num_samples=20, seed=0)
        assert result.seeds == [0]
        assert result.spread == pytest.approx(6.0)

    def test_k_exceeding_nodes(self, line_graph):
        result = greedy_im(line_graph, np.zeros(3), 10, num_samples=5, seed=0)
        assert len(result.seeds) == 4
        assert len(set(result.seeds)) == 4

    def test_lazy_matches_plain_greedy_with_deterministic_oracle(
        self, medium_graph, medium_probabilities
    ):
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=2000, seed=1
        )
        lazy = greedy_im(
            medium_graph, medium_probabilities, 3, estimator=estimator, lazy=True
        )
        plain = greedy_im(
            medium_graph, medium_probabilities, 3, estimator=estimator, lazy=False
        )
        assert lazy.seeds == plain.seeds
        assert lazy.spread == pytest.approx(plain.spread)

    def test_lazy_uses_fewer_evaluations(self, medium_graph, medium_probabilities):
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=1000, seed=2
        )
        lazy = greedy_im(
            medium_graph, medium_probabilities, 3, estimator=estimator, lazy=True
        )
        plain = greedy_im(
            medium_graph, medium_probabilities, 3, estimator=estimator, lazy=False
        )
        assert lazy.evaluations < plain.evaluations

    def test_candidate_restriction(self, star_graph):
        result = greedy_im(
            star_graph, np.ones(5), 1, candidates=[1, 2], num_samples=5, seed=0
        )
        assert result.seeds[0] in (1, 2)

    def test_invalid_candidate(self, star_graph):
        with pytest.raises(ValidationError):
            greedy_im(star_graph, np.ones(5), 1, candidates=[99])

    def test_empty_candidates(self, star_graph):
        with pytest.raises(ValidationError, match="empty"):
            greedy_im(star_graph, np.ones(5), 1, candidates=[])

    def test_invalid_k(self, star_graph):
        with pytest.raises(ValidationError):
            greedy_im(star_graph, np.ones(5), 0)

    def test_marginal_gains_diminish_with_exact_oracle(self, diamond_graph):
        estimator = RRSetSpreadEstimator(
            diamond_graph, np.ones(4), num_sets=100, seed=0
        )
        result = greedy_im(diamond_graph, np.ones(4), 3, estimator=estimator)
        gains = result.marginal_gains
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 1e-9

    def test_spread_at_least_best_singleton(self, medium_graph, medium_probabilities):
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=1500, seed=3
        )
        result = greedy_im(
            medium_graph, medium_probabilities, 2, estimator=estimator
        )
        best_single = max(
            estimator.spread([node]) for node in range(medium_graph.num_nodes)
        )
        assert result.spread >= best_single - 1e-9
