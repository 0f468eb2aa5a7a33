"""Unit tests for repro.propagation.worlds."""

import numpy as np
import pytest

from reference.worlds import LiveEdgeWorld, WorldEnsemble
from repro.utils.validation import ValidationError


class TestLiveEdgeWorld:
    def test_threshold_shape_validated(self, line_graph):
        with pytest.raises(ValidationError):
            LiveEdgeWorld(line_graph, np.zeros(2))

    def test_live_mask_semantics(self, line_graph):
        world = LiveEdgeWorld(line_graph, np.array([0.3, 0.6, 0.9]))
        mask = world.live_mask(np.array([0.5, 0.5, 0.5]))
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_reachability_follows_live_edges(self, line_graph):
        world = LiveEdgeWorld(line_graph, np.array([0.1, 0.1, 0.9]))
        reached = world.reachable_from([0], np.full(3, 0.5))
        assert reached == {0, 1, 2}

    def test_reaches(self, line_graph):
        world = LiveEdgeWorld(line_graph, np.array([0.1, 0.1, 0.1]))
        probabilities = np.full(3, 0.5)
        assert world.reaches(0, 3, probabilities)
        assert world.reaches(2, 2, probabilities)
        assert not world.reaches(3, 0, probabilities)

    def test_monotone_coupling(self, medium_graph, medium_weights):
        """If p ≤ p' edgewise, the live-edge graph is a subgraph."""
        world = LiveEdgeWorld.sample(medium_graph, seed=0)
        low = medium_weights.edge_probabilities(
            np.array([1.0, 0.0, 0.0, 0.0])
        ) * 0.5
        high = low * 2.0
        reached_low = world.reachable_from([0, 1, 2], low)
        reached_high = world.reachable_from([0, 1, 2], high)
        assert reached_low <= reached_high

    def test_sample_deterministic(self, line_graph):
        a = LiveEdgeWorld.sample(line_graph, seed=5)
        b = LiveEdgeWorld.sample(line_graph, seed=5)
        np.testing.assert_array_equal(a.thresholds, b.thresholds)


class TestWorldEnsemble:
    def test_len_and_iter(self, line_graph):
        ensemble = WorldEnsemble(line_graph, 7, seed=0)
        assert len(ensemble) == 7
        assert len(list(ensemble)) == 7

    def test_spread_estimate_unbiased_on_line(self, line_graph):
        p = 0.5
        ensemble = WorldEnsemble(line_graph, 3000, seed=1)
        estimate = ensemble.estimate_spread([0], np.full(3, p))
        exact = 1 + p + p**2 + p**3
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_spread_monotone_in_probabilities(self, line_graph):
        ensemble = WorldEnsemble(line_graph, 500, seed=2)
        low = ensemble.estimate_spread([0], np.full(3, 0.2))
        high = ensemble.estimate_spread([0], np.full(3, 0.8))
        assert high >= low

    def test_invalid_world_count(self, line_graph):
        with pytest.raises(ValidationError):
            WorldEnsemble(line_graph, 0)
