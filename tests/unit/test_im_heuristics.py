"""Unit tests for repro.im.heuristics."""

import numpy as np
import pytest

from reference.heuristics import (
    degree_discount_seeds,
    degree_seeds,
    pagerank_seeds,
    random_seeds,
)
from repro.utils.validation import ValidationError


class TestDegreeSeeds:
    def test_hub_first(self, star_graph):
        assert degree_seeds(star_graph, 1).seeds == [0]

    def test_k_capped_at_n(self, line_graph):
        assert len(degree_seeds(line_graph, 99).seeds) == 4

    def test_invalid_k(self, star_graph):
        with pytest.raises(ValidationError):
            degree_seeds(star_graph, 0)


class TestDegreeDiscount:
    def test_hub_first(self, star_graph):
        result = degree_discount_seeds(star_graph, 1, np.full(5, 0.1))
        assert result.seeds == [0]

    def test_discount_spreads_selection(self):
        """After picking the hub, its neighbours are discounted, so the
        second pick should be the second hub, not a spoke of the first."""
        from repro.graph.digraph import SocialGraph

        edges = [(0, i) for i in range(2, 6)] + [(1, i) for i in range(6, 10)]
        edges += [(0, 1)]
        graph = SocialGraph.from_edges(10, edges)
        result = degree_discount_seeds(graph, 2, np.full(len(edges), 0.1))
        assert set(result.seeds) == {0, 1}

    def test_no_duplicates(self, medium_graph, medium_probabilities):
        result = degree_discount_seeds(medium_graph, 10, medium_probabilities)
        assert len(set(result.seeds)) == len(result.seeds) == 10

    def test_works_without_probabilities(self, star_graph):
        assert degree_discount_seeds(star_graph, 2).seeds[0] == 0


class TestPagerankSeeds:
    def test_reverse_direction_finds_influencers(self, line_graph):
        # In 0→1→2→3, node 0 is the most *influential* (reaches everyone).
        result = pagerank_seeds(line_graph, 1, reverse=True)
        assert result.seeds == [0]

    def test_forward_direction_finds_popular(self, line_graph):
        result = pagerank_seeds(line_graph, 1, reverse=False)
        assert result.seeds == [3]

    def test_k_respected(self, medium_graph):
        assert len(pagerank_seeds(medium_graph, 7).seeds) == 7


class TestRandomSeeds:
    def test_distinct(self, medium_graph):
        result = random_seeds(medium_graph, 20, seed=0)
        assert len(set(result.seeds)) == 20

    def test_deterministic(self, medium_graph):
        a = random_seeds(medium_graph, 5, seed=1)
        b = random_seeds(medium_graph, 5, seed=1)
        assert a.seeds == b.seeds

    def test_k_capped(self, line_graph):
        assert len(random_seeds(line_graph, 99, seed=0).seeds) == 4
