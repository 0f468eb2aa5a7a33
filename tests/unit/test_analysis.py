"""Unit tests for repro.graph.analysis."""

import numpy as np
import pytest

from reference.analysis import (
    degree_histogram,
    pagerank,
    top_nodes_by_degree,
    weakly_connected_components,
)
from repro.graph.digraph import SocialGraph
from repro.utils.validation import ValidationError


class TestPagerank:
    def test_sums_to_one(self, medium_graph):
        scores = pagerank(medium_graph)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores > 0)

    def test_sink_receives_mass(self, line_graph):
        scores = pagerank(line_graph)
        assert scores[3] == scores.max()

    def test_symmetric_cycle_uniform(self):
        graph = SocialGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        scores = pagerank(graph)
        np.testing.assert_allclose(scores, 0.25, atol=1e-6)

    def test_empty_graph(self):
        graph = SocialGraph.from_edges(0, [])
        assert pagerank(graph).size == 0

    def test_dangling_nodes_handled(self, star_graph):
        scores = pagerank(star_graph)
        assert scores.sum() == pytest.approx(1.0)
        # spokes all equal by symmetry
        np.testing.assert_allclose(scores[1:], scores[1], atol=1e-9)

    def test_invalid_damping(self, line_graph):
        with pytest.raises(ValidationError):
            pagerank(line_graph, damping=1.5)


class TestComponents:
    def test_single_component(self, diamond_graph):
        labels = weakly_connected_components(diamond_graph)
        assert len(set(labels.tolist())) == 1

    def test_two_components(self):
        graph = SocialGraph.from_edges(4, [(0, 1), (2, 3)])
        labels = weakly_connected_components(graph)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_isolated_nodes_get_own_component(self):
        graph = SocialGraph.from_edges(3, [])
        labels = weakly_connected_components(graph)
        assert len(set(labels.tolist())) == 3

    def test_direction_ignored(self):
        graph = SocialGraph.from_edges(3, [(1, 0), (1, 2)])
        labels = weakly_connected_components(graph)
        assert len(set(labels.tolist())) == 1


class TestDegreeStatistics:
    def test_histogram_in(self, star_graph):
        histogram = degree_histogram(star_graph, incoming=True)
        assert histogram == {0: 1, 1: 5}

    def test_histogram_out(self, star_graph):
        histogram = degree_histogram(star_graph, incoming=False)
        assert histogram == {0: 5, 5: 1}

    def test_top_nodes(self, star_graph):
        top = top_nodes_by_degree(star_graph, 2, incoming=False)
        assert top[0] == (0, 5)

    def test_top_nodes_k_larger_than_n(self, line_graph):
        top = top_nodes_by_degree(line_graph, 100)
        assert len(top) == 4
