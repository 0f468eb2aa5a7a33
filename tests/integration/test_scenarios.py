"""Integration tests reproducing the paper's demo scenarios (Section III).

Each scenario runs end-to-end on the synthetic ACMCite dataset and asserts
the qualitative behaviour the demo describes.
"""

import numpy as np
import pytest

from reference.heuristics import pagerank_seeds
from repro.core.octopus import Octopus, OctopusConfig
from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.viz.d3 import path_tree_to_d3_force
from repro.viz.radar import radar_chart_data


@pytest.fixture(scope="module")
def system(citation_dataset):
    config = OctopusConfig(
        num_sketches=150,
        num_topic_samples=16,
        topic_sample_rr_sets=1500,
        seed=2024,
    )
    return Octopus.from_dataset(citation_dataset, config=config)


class TestScenario1KeywordInfluencerDiscovery:
    """'She just types in keywords "data mining", and a set of influential
    researchers in the area is returned.'"""

    def test_returns_influential_researchers(self, system):
        result = system.find_influencers("data mining", k=5)
        assert len(result.seeds) == 5
        assert all(isinstance(label, str) for label in result.labels)
        assert result.spread > 5  # seeds influence beyond themselves

    def test_topic_specificity(self, system, citation_dataset):
        """Seeds for a topic should be stronger on that topic than the
        seeds returned for an unrelated topic."""
        dm = system.find_influencers("data mining", k=5)
        hci = system.find_influencers("user studies", k=5)
        gamma_dm = system.derive_gamma("data mining")
        probabilities = citation_dataset.true_edge_weights.edge_probabilities(
            gamma_dm
        )
        judge = MonteCarloSpreadEstimator(
            citation_dataset.graph, probabilities, num_samples=400, seed=1
        )
        assert judge.spread(dm.seeds) >= judge.spread(hci.seeds) * 0.9

    def test_diversity_against_individual_ranking(self, system, citation_dataset):
        """IM returns complementary seeds: their joint spread should beat
        the top-k of an individual-influence ranking (PageRank), which
        tends to pick redundant users — the Scenario 1 observation."""
        result = system.find_influencers("data mining", k=5)
        ranked = pagerank_seeds(citation_dataset.graph, 5).seeds
        gamma = system.derive_gamma("data mining")
        probabilities = citation_dataset.true_edge_weights.edge_probabilities(
            gamma
        )
        judge = MonteCarloSpreadEstimator(
            citation_dataset.graph, probabilities, num_samples=500, seed=2
        )
        assert judge.spread(result.seeds) >= 0.95 * judge.spread(ranked)


class TestScenario2KeywordSuggestion:
    """'OCTOPUS will provide a set of keywords extracted from paper titles
    of the researcher ... Moreover, OCTOPUS also provides illustrative
    interpretation of keywords using a radar diagram.'"""

    def _influential_author(self, system):
        return system.find_influencers("data mining", k=1).seeds[0]

    def test_suggests_keywords_from_own_papers(self, system):
        author = self._influential_author(system)
        result = system.suggest_keywords(author, k=3)
        own_words = {
            system.topic_model.vocabulary.word_of(w)
            for w in system.user_keywords[author]
        }
        assert set(result.keywords) <= own_words
        assert 1 <= len(result.keywords) <= 3

    def test_radar_interpretation(self, system):
        payload = radar_chart_data(
            system.topic_model, ["em algorithm"], system.topic_names
        )
        assert payload["dominant"] == "machine learning"
        assert len(payload["values"]) == 8

    def test_autocompletion_assists_name_entry(self, system):
        author = self._influential_author(system)
        name = system.graph.label_of(author)
        completions = system.autocomplete_users(name[: len(name) // 2])
        assert any(node == author for _key, node in completions)

    def test_suggested_keywords_reflect_influence(self, system, citation_dataset):
        """The suggested set should give the author at least the spread of
        a random keyword choice from their vocabulary."""
        author = self._influential_author(system)
        result = system.suggest_keywords(author, k=2)
        own = list(dict.fromkeys(system.user_keywords[author]))
        worst_word = min(
            own,
            key=lambda w: result.per_keyword_spread.get(
                system.topic_model.vocabulary.word_of(w), float("inf")
            ),
        )
        gamma_worst = system.topic_model.keyword_topic_posterior([worst_word])
        worst_spread = system.influencer_index.estimate_user_spread(
            author, gamma_worst
        )
        assert result.spread >= worst_spread - 1e-9


class TestScenario3PathExploration:
    """'OCTOPUS will visualize the influential paths ... the user may find
    the influenced users roughly form some clusters ... when the user
    clicks on any node, OCTOPUS will highlight the paths through it.'"""

    def _influencer(self, system):
        return system.find_influencers("data mining", k=1).seeds[0]

    def test_forward_tree(self, system):
        tree = system.explore_paths(self._influencer(system), threshold=0.02)
        assert tree.size > 1
        assert tree.direction == "influences"

    def test_clusters_exist(self, system):
        tree = system.explore_paths(self._influencer(system), threshold=0.02)
        clusters = tree.clusters()
        assert len(clusters) >= 1
        covered = {node for cluster in clusters for node in cluster}
        assert covered == set(tree.parents) - {tree.root}

    def test_click_highlight(self, system):
        tree = system.explore_paths(self._influencer(system), threshold=0.02)
        children = tree.children()[tree.root]
        assert children
        paths = tree.paths_through(children[0])
        assert all(path[0] == tree.root for path in paths)
        assert all(children[0] in path for path in paths)

    def test_reverse_exploration(self, system):
        """'OCTOPUS also supports the exploration of how a target user is
        influenced.'"""
        influencer = self._influencer(system)
        forward = system.explore_paths(influencer, threshold=0.02)
        some_influenced = next(
            node for node in forward.parents if node != influencer
        )
        reverse = system.explore_paths(
            some_influenced, direction="influenced_by", threshold=0.02
        )
        assert influencer in reverse.parents

    def test_d3_payload_for_ui(self, system):
        tree = system.explore_paths(self._influencer(system), threshold=0.02)
        payload = path_tree_to_d3_force(tree)
        root_nodes = [n for n in payload["nodes"] if n["root"]]
        assert len(root_nodes) == 1
        # the big yellow node: root has the largest size value
        assert root_nodes[0]["size"] == max(n["size"] for n in payload["nodes"])


class TestScenarioQQ:
    """The QQ deployment: 'input keywords "game" to find influential users
    on topic game' and food-related keyword suggestion."""

    @pytest.fixture(scope="class")
    def qq_system(self, qq_dataset):
        config = OctopusConfig(
            num_sketches=150,
            num_topic_samples=12,
            topic_sample_rr_sets=1000,
            seed=808,
        )
        return Octopus.from_dataset(qq_dataset, config=config)

    def test_game_influencers(self, qq_system):
        result = qq_system.find_influencers("game", k=5)
        assert len(result.seeds) == 5
        assert result.spread > 0

    def test_food_keyword_suggestion(self, qq_system, qq_dataset):
        """A user whose posts are food-heavy should get food keywords."""
        model = qq_dataset.true_topic_model
        food_topic = qq_dataset.topic_names.index("food")
        candidates = [
            user
            for user, words in qq_dataset.user_keywords.items()
            if len(words) >= 4
            and np.argmax(qq_dataset.node_affinities[user]) == food_topic
            and qq_dataset.graph.out_degree(user) >= 4
        ]
        assert candidates, "dataset should contain food-focused users"
        user = candidates[0]
        result = qq_system.suggest_keywords(user, k=3)
        dominant = model.keyword_topic_posterior(result.keywords).argmax()
        assert qq_dataset.topic_names[dominant] == "food"
