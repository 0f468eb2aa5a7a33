"""Integration: dataset persistence and system rebuild round-trip."""

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.datasets.loaders import load_dataset, save_dataset


class TestSaveLoadRebuild:
    def test_system_from_reloaded_dataset_answers_identically(
        self, citation_dataset, tmp_path
    ):
        directory = tmp_path / "acmcite"
        save_dataset(citation_dataset, directory)
        reloaded = load_dataset(directory)

        config = OctopusConfig(
            num_sketches=60,
            num_topic_samples=6,
            topic_sample_rr_sets=400,
            seed=5,
        )
        original = Octopus.from_dataset(citation_dataset, config=config)
        rebuilt = Octopus.from_dataset(reloaded, config=config)

        a = original.find_influencers("data mining", k=4)
        b = rebuilt.find_influencers("data mining", k=4)
        assert a.seeds == b.seeds
        assert a.spread == pytest.approx(b.spread)

        tree_a = original.explore_paths(a.seeds[0], threshold=0.05)
        tree_b = rebuilt.explore_paths(b.seeds[0], threshold=0.05)
        assert tree_a.parents == tree_b.parents

    def test_reloaded_dataset_supports_learning(self, qq_dataset, tmp_path):
        from repro.topics.em import EMConfig, TICLearner

        directory = tmp_path / "qq"
        save_dataset(qq_dataset, directory)
        reloaded = load_dataset(directory)
        learner = TICLearner(
            reloaded.graph,
            reloaded.vocabulary,
            EMConfig(num_topics=8, max_iterations=3, seed=0),
        )
        result = learner.fit(reloaded.items)
        assert result.iterations >= 1
