"""Unit tests for repro.graph.traversal."""

import numpy as np
import pytest

from repro.graph.digraph import SocialGraph
from repro.graph.traversal import max_probability_paths
from repro.utils.validation import ValidationError


class TestMaxProbabilityPaths:
    def test_path_probabilities_multiply(self, line_graph):
        probs = np.array([0.5, 0.4, 0.2])
        result, parents = max_probability_paths(line_graph, 0, probs)
        assert result[0] == 1.0
        assert result[1] == pytest.approx(0.5)
        assert result[2] == pytest.approx(0.2)
        assert result[3] == pytest.approx(0.04)
        assert parents[3] == 2

    def test_picks_best_of_parallel_paths(self, diamond_graph):
        # edge order: (0,1)=0, (0,2)=1, (1,3)=2, (2,3)=3
        probs = np.array([0.9, 0.5, 0.5, 0.9])
        result, parents = max_probability_paths(diamond_graph, 0, probs)
        assert result[3] == pytest.approx(0.45)
        assert parents[3] in (1, 2)  # both routes give 0.45; either is valid

    def test_threshold_prunes(self, line_graph):
        probs = np.array([0.5, 0.4, 0.2])
        result, _parents = max_probability_paths(
            line_graph, 0, probs, threshold=0.1
        )
        assert 3 not in result  # 0.04 < 0.1
        assert 2 in result

    def test_reverse_direction(self, line_graph):
        probs = np.array([0.5, 0.4, 0.2])
        result, parents = max_probability_paths(
            line_graph, 3, probs, reverse=True
        )
        assert result[0] == pytest.approx(0.04)
        assert parents[0] == 1  # next hop toward 3 along original direction

    def test_zero_probability_edges_ignored(self, line_graph):
        probs = np.array([0.5, 0.0, 0.2])
        result, _parents = max_probability_paths(line_graph, 0, probs)
        assert set(result) == {0, 1}

    def test_max_nodes_caps_exploration(self, line_graph):
        probs = np.ones(3)
        result, _parents = max_probability_paths(
            line_graph, 0, probs, max_nodes=2
        )
        assert len(result) <= 3

    def test_source_always_present(self, diamond_graph):
        probs = np.zeros(4)
        result, parents = max_probability_paths(diamond_graph, 0, probs)
        assert result == {0: 1.0}
        assert parents == {0: 0}

    def test_invalid_threshold(self, line_graph):
        with pytest.raises(ValidationError):
            max_probability_paths(line_graph, 0, np.ones(3), threshold=1.5)

    def test_cycle_terminates(self):
        graph = SocialGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        probs = np.array([0.9, 0.9, 0.9])
        result, _parents = max_probability_paths(graph, 0, probs)
        assert set(result) == {0, 1, 2}
        assert result[2] == pytest.approx(0.81)
