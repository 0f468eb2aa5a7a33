"""Edge-case and failure-injection tests across module boundaries."""

import numpy as np
import pytest

from reference.besteffort import BestEffortKeywordIM
from reference.bounds import PrecomputationBound
from repro.core.influencer_index import InfluencerIndex
from repro.core.paths import InfluencePathExplorer
from repro.graph.digraph import SocialGraph
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


class TestSingleTopicDegeneracy:
    """Z=1 must behave exactly like the classical (non-topic) model."""

    def test_gamma_is_forced(self, line_graph):
        weights = TopicEdgeWeights(line_graph, np.full((3, 1), 0.5))
        np.testing.assert_allclose(
            weights.edge_probabilities(np.array([1.0])), 0.5
        )

    def test_bounds_work(self, line_graph):
        weights = TopicEdgeWeights(line_graph, np.full((3, 1), 0.5))
        bounds = PrecomputationBound(weights, grid=2).bounds(np.array([1.0]))
        assert bounds.shape == (4,)
        assert np.all(bounds >= 1.0)

    def test_best_effort_single_topic(self, line_graph):
        weights = TopicEdgeWeights(line_graph, np.full((3, 1), 0.9))
        engine = BestEffortKeywordIM(weights, PrecomputationBound(weights), seed=0)
        result = engine.query(np.array([1.0]), 1)
        assert result.seeds == [0]  # head of the path dominates


class TestDisconnectedGraphs:
    def test_index_on_graph_with_isolated_nodes(self):
        graph = SocialGraph.from_edges(5, [(0, 1)])
        weights = TopicEdgeWeights(graph, np.full((1, 2), 0.5))
        index = InfluencerIndex(weights, num_sketches=50, seed=0)
        gamma = np.array([0.5, 0.5])
        # Isolated nodes influence only themselves.
        assert index.estimate_user_spread(4, gamma) <= graph.num_nodes
        assert index.estimate_seed_set_spread(
            [0, 1, 2, 3, 4], gamma
        ) == pytest.approx(5.0)

    def test_paths_on_isolated_node(self):
        graph = SocialGraph.from_edges(3, [(0, 1)])
        weights = TopicEdgeWeights(graph, np.full((1, 2), 0.5))
        tree = InfluencePathExplorer(weights).explore(2, threshold=0.0)
        assert tree.size == 1
        assert tree.clusters() == []

    def test_edgeless_graph_everything_degenerates_gracefully(self):
        graph = SocialGraph.from_edges(4, [])
        weights = TopicEdgeWeights(graph, np.zeros((0, 2)))
        index = InfluencerIndex(weights, num_sketches=20, seed=0)
        gamma = np.array([0.5, 0.5])
        assert index.estimate_user_spread(0, gamma) <= 4.0
        tree = InfluencePathExplorer(weights).explore(0)
        assert tree.size == 1


class TestPruneRatioKnob:
    def test_zero_ratio_disables_warm_start_pruning(self, medium_graph):
        weights = TopicEdgeWeights.weighted_cascade(medium_graph, 4, seed=1)
        engine = BestEffortKeywordIM(weights, PrecomputationBound(weights), seed=2)
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        warm = engine.query(gamma, 3).seeds
        unpruned = engine.query(gamma, 3, warm_start=warm, prune_ratio=0.0)
        assert unpruned.statistics["pruned_by_warm_start"] == 0.0

    @pytest.mark.parametrize(
        "warm_start", [np.array([1, 2]), np.array([], dtype=np.int64)]
    )
    def test_numpy_warm_start(self, medium_graph, warm_start):
        """An array warm start counts as one exact evaluation iff non-empty,
        like the list it equals."""
        weights = TopicEdgeWeights.weighted_cascade(medium_graph, 4, seed=1)
        engine = BestEffortKeywordIM(weights, PrecomputationBound(weights), seed=2)
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        from_array = engine.query(gamma, 3, warm_start=warm_start)
        from_list = engine.query(gamma, 3, warm_start=warm_start.tolist())
        assert from_array.seeds == from_list.seeds
        assert from_array.statistics == from_list.statistics

    def test_invalid_ratio(self, medium_graph):
        weights = TopicEdgeWeights.weighted_cascade(medium_graph, 4, seed=1)
        engine = BestEffortKeywordIM(weights, PrecomputationBound(weights), seed=2)
        with pytest.raises(ValidationError):
            engine.query(
                np.array([0.25, 0.25, 0.25, 0.25]),
                2,
                warm_start=[0],
                prune_ratio=1.5,
            )


class TestExplorerMaxNodes:
    def test_max_nodes_caps_tree(self, medium_graph):
        weights = TopicEdgeWeights.weighted_cascade(medium_graph, 4, seed=3)
        explorer = InfluencePathExplorer(weights)
        hub = int(np.argmax(medium_graph.out_degree()))
        unbounded = explorer.explore(hub, threshold=0.0)
        capped = explorer.explore(hub, threshold=0.0, max_nodes=5)
        assert capped.size <= unbounded.size
        # the capped tree is still well-formed
        for node in capped.parents:
            capped.path_to(node)


class TestExtremeProbabilities:
    def test_all_one_probabilities(self, diamond_graph):
        weights = TopicEdgeWeights(diamond_graph, np.ones((4, 2)))
        index = InfluencerIndex(weights, num_sketches=100, seed=0)
        gamma = np.array([1.0, 0.0])
        # From node 0 everything is reachable with certainty.
        assert index.estimate_user_spread(0, gamma) == pytest.approx(
            4.0 * 100 / 100, abs=1.5
        )

    def test_all_zero_probabilities(self, diamond_graph):
        weights = TopicEdgeWeights(diamond_graph, np.zeros((4, 2)))
        index = InfluencerIndex(weights, num_sketches=100, seed=0)
        gamma = np.array([1.0, 0.0])
        estimate = index.estimate_user_spread(0, gamma)
        # Only sketches rooted at 0 count: estimate = n · (#roots==0)/R ≈ 1.
        assert estimate <= 2.5
        stats = index.statistics()
        assert stats["total_edges"] == 0.0  # everything pruned permanently
