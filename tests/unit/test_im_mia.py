"""Unit tests for repro.im.mia (maximum influence arborescence)."""

import numpy as np
import pytest

from reference.mia import MIAModel, mia_im
from repro.propagation.ic import IndependentCascade
from repro.utils.validation import ValidationError


class TestMIAModel:
    def test_line_activation_probabilities(self, line_graph):
        p = 0.5
        model = MIAModel(line_graph, np.full(3, p), threshold=0.0)
        assert model.activation_probability(0, {0}) == 1.0
        assert model.activation_probability(1, {0}) == pytest.approx(p)
        assert model.activation_probability(3, {0}) == pytest.approx(p**3)

    def test_spread_on_line_matches_exact(self, line_graph):
        # On a tree MIA is exact: σ({0}) = 1 + p + p² + p³.
        p = 0.4
        model = MIAModel(line_graph, np.full(3, p), threshold=0.0)
        assert model.spread([0]) == pytest.approx(1 + p + p**2 + p**3)

    def test_diamond_underestimates_union(self, diamond_graph):
        """MIA keeps only the best path, so it lower-bounds the true
        two-path activation probability of the sink."""
        p = 0.6
        model = MIAModel(diamond_graph, np.full(4, p), threshold=0.0)
        ap = model.activation_probability(3, {0})
        exact = 1 - (1 - p * p) ** 2
        assert ap == pytest.approx(p * p)
        assert ap <= exact

    def test_threshold_prunes_members(self, line_graph):
        model = MIAModel(line_graph, np.full(3, 0.3), threshold=0.1)
        # MIIA(3) keeps nodes whose best path into 3 has probability ≥ 0.1:
        # node 2 (0.3) stays; node 1 (0.09) and node 0 (0.027) are pruned.
        members = set(model.arborescence(3))
        assert members == {2, 3}

    def test_seed_in_arborescence_counts(self, line_graph):
        model = MIAModel(line_graph, np.ones(3), threshold=0.0)
        assert model.spread([1]) == pytest.approx(3.0)  # 1, 2, 3

    def test_shape_validation(self, line_graph):
        with pytest.raises(ValidationError):
            MIAModel(line_graph, np.ones(2))

    def test_multiple_seeds_saturate(self, line_graph):
        model = MIAModel(line_graph, np.ones(3), threshold=0.0)
        assert model.spread([0, 1, 2, 3]) == pytest.approx(4.0)

    def test_spread_close_to_monte_carlo_on_sparse_graph(
        self, medium_graph, medium_probabilities
    ):
        model = MIAModel(medium_graph, medium_probabilities, threshold=0.001)
        cascade = IndependentCascade(medium_graph, medium_probabilities)
        mia_spread = model.spread([0, 1])
        mc_spread = cascade.estimate_spread([0, 1], num_samples=2000, seed=0)
        assert mia_spread == pytest.approx(mc_spread, rel=0.35, abs=2.0)


class TestMiaIM:
    def test_hub_selected(self, star_graph):
        result = mia_im(star_graph, np.ones(5), 1, threshold=0.0)
        assert result.seeds == [0]
        assert result.spread == pytest.approx(6.0)

    def test_deterministic(self, medium_graph, medium_probabilities):
        a = mia_im(medium_graph, medium_probabilities, 3, threshold=0.01)
        b = mia_im(medium_graph, medium_probabilities, 3, threshold=0.01)
        assert a.seeds == b.seeds
        assert a.spread == b.spread

    def test_candidates_respected(self, star_graph):
        result = mia_im(star_graph, np.ones(5), 1, candidates=[2, 3])
        assert result.seeds[0] in (2, 3)

    def test_empty_candidates(self, star_graph):
        with pytest.raises(ValidationError, match="empty"):
            mia_im(star_graph, np.ones(5), 1, candidates=[])

    def test_reuses_model(self, star_graph):
        model = MIAModel(star_graph, np.ones(5), threshold=0.0)
        result = mia_im(star_graph, np.ones(5), 2, model=model)
        assert result.seeds[0] == 0

    def test_gains_diminish(self, medium_graph, medium_probabilities):
        result = mia_im(medium_graph, medium_probabilities, 4, threshold=0.01)
        gains = result.marginal_gains
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 1e-9
