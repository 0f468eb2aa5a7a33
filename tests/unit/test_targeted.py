"""Unit tests for repro.core.targeted (targeted keyword IM, ref. [7])."""

import numpy as np
import pytest

from repro.core.targeted import TargetedKeywordIM, draw_weighted_roots
from repro.graph.digraph import SocialGraph
from repro.index.inverted import InvertedIndex
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


@pytest.fixture
def two_hub_world():
    """Two disjoint stars: hub 0 → 1..4, hub 5 → 6..9.

    The audience lives entirely in the second star, so a targeted query
    must pick hub 5 even though both hubs have equal structural influence.
    """
    edges = [(0, i) for i in range(1, 5)] + [(5, i) for i in range(6, 10)]
    graph = SocialGraph.from_edges(10, edges)
    weights = TopicEdgeWeights(graph, np.full((len(edges), 2), 0.9))
    audience = np.zeros(10)
    audience[6:10] = 1.0
    return graph, weights, audience


GAMMA = np.array([0.5, 0.5])


class TestQuery:
    def test_targets_audience_hub(self, two_hub_world):
        _graph, weights, audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=300, seed=0)
        result = engine.query(GAMMA, 1, audience)
        assert result.seeds == [5]

    def test_untargeted_equivalent_with_uniform_audience(self, two_hub_world):
        graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=300, seed=0)
        uniform = np.ones(graph.num_nodes)
        result = engine.query(GAMMA, 2, uniform)
        assert set(result.seeds) == {0, 5}  # both hubs matter now

    def test_weighted_spread_units(self, two_hub_world):
        _graph, weights, audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=500, seed=1)
        result = engine.query(GAMMA, 1, audience)
        # Hub 5 activates each audience member with probability 0.9;
        # weighted spread ≈ 4 × 0.9 = 3.6 (hub itself has weight 0).
        assert result.spread == pytest.approx(3.6, abs=0.5)

    def test_estimator_agrees_with_monte_carlo(self, two_hub_world):
        _graph, weights, audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=2000, seed=2)
        result = engine.query(GAMMA, 1, audience)
        reference = engine.estimate_weighted_spread(
            result.seeds, GAMMA, audience, num_samples=2000, seed=3
        )
        assert result.spread == pytest.approx(reference, rel=0.15)

    def test_statistics(self, two_hub_world):
        _graph, weights, audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=100, seed=0)
        result = engine.query(GAMMA, 1, audience)
        assert result.statistics["audience_users"] == 4.0
        assert result.statistics["audience_total_weight"] == 4.0

    def test_empty_audience_rejected(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=100, seed=0)
        with pytest.raises(ValidationError, match="empty"):
            engine.query(GAMMA, 1, np.zeros(10))

    def test_negative_audience_rejected(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=100, seed=0)
        bad = np.ones(10)
        bad[0] = -1.0
        with pytest.raises(ValidationError, match="non-negative"):
            engine.query(GAMMA, 1, bad)

    def test_wrong_audience_shape_rejected(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=100, seed=0)
        with pytest.raises(ValidationError, match="shape"):
            engine.query(GAMMA, 1, np.ones(3))


class TestAudienceFromIndex:
    def test_audience_from_keywords(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        index = InvertedIndex()
        index.add_document(6, [0, 0, 1])
        index.add_document(7, [0])
        engine = TargetedKeywordIM(weights, index, num_sets=100, seed=0)
        audience = engine.audience_for_keywords([0])
        assert audience[6] == 2.0
        assert audience[7] == 1.0
        assert audience[0] == 0.0

    def test_requires_index(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(weights, num_sets=100, seed=0)
        with pytest.raises(ValidationError, match="inverted index"):
            engine.audience_for_keywords([0])

    def test_empty_word_ids_rejected(self, two_hub_world):
        _graph, weights, _audience = two_hub_world
        engine = TargetedKeywordIM(
            weights, InvertedIndex(), num_sets=100, seed=0
        )
        with pytest.raises(ValidationError, match="empty"):
            engine.audience_for_keywords([])


class TestOctopusIntegration:
    def test_facade_targeted_query(self, citation_dataset):
        from repro.core.octopus import Octopus, OctopusConfig

        system = Octopus.from_dataset(
            citation_dataset,
            config=OctopusConfig(
                num_sketches=40,
                num_topic_samples=4,
                topic_sample_rr_sets=200,
                seed=4,
            ),
        )
        result = system.find_targeted_influencers(
            "data mining", k=3, num_sets=500
        )
        assert len(result.seeds) == 3
        assert result.statistics["audience_users"] > 0
        # cached on repeat
        again = system.find_targeted_influencers(
            "data mining", k=3, num_sets=500
        )
        assert again.seeds == result.seeds

    def test_facade_separate_audience(self, citation_dataset):
        from repro.core.octopus import Octopus, OctopusConfig

        system = Octopus.from_dataset(
            citation_dataset,
            config=OctopusConfig(
                num_sketches=40,
                num_topic_samples=4,
                topic_sample_rr_sets=200,
                seed=4,
            ),
        )
        result = system.find_targeted_influencers(
            "data mining",
            k=2,
            audience_keywords="clustering",
            num_sets=300,
        )
        assert len(result.seeds) == 2


class TestWeightedRootDraw:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_generator_choice_and_its_next_draw(self, seed):
        """Searching the nonzero-weight CDF gives Generator.choice's exact
        indices and leaves the stream where choice leaves it."""
        rng = np.random.default_rng(seed)
        weights = np.zeros(2000)
        users = rng.choice(2000, 100 + 10 * seed, replace=False)
        weights[users] = rng.integers(1, 9, users.size)
        if seed % 3 == 0:
            weights[0] = 1.0  # a weighted first node
        if seed % 5 == 0:
            weights[-1] = 2.0  # a weighted last node
        distribution = weights / weights.sum()
        expected_rng = np.random.default_rng(seed + 100)
        drawn_rng = np.random.default_rng(seed + 100)
        expected = expected_rng.choice(2000, size=5000, p=distribution)
        drawn = draw_weighted_roots(drawn_rng, distribution, 5000)
        assert drawn.dtype == expected.dtype
        np.testing.assert_array_equal(drawn, expected)
        assert drawn_rng.random() == expected_rng.random()
