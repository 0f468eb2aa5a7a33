"""Unit tests for the Octopus facade (configuration, parsing, plumbing)."""

import numpy as np
import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def system(citation_dataset_module):
    config = OctopusConfig(
        num_sketches=80,
        num_topic_samples=8,
        topic_sample_rr_sets=500,
        oracle_samples=40,
        seed=9,
    )
    return Octopus.from_dataset(citation_dataset_module, config=config)


@pytest.fixture(scope="module")
def citation_dataset_module():
    from repro.datasets.citation import CitationNetworkGenerator

    return CitationNetworkGenerator(
        num_researchers=150,
        citations_per_paper=3,
        papers_per_author=2,
        seed=77,
    ).generate()


class TestConfig:
    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            OctopusConfig(num_sketches=0)

    def test_defaults_valid(self):
        OctopusConfig()


class TestConstruction:
    def test_topic_count_mismatch_detected(self, citation_dataset_module):
        dataset = citation_dataset_module
        from repro.topics.edges import TopicEdgeWeights

        wrong = TopicEdgeWeights(
            dataset.graph, np.full((dataset.graph.num_edges, 2), 0.1)
        )
        with pytest.raises(ValidationError, match="topics"):
            Octopus(
                dataset.graph,
                dataset.true_topic_model,
                wrong,
                dataset.user_keywords,
            )

    def test_foreign_graph_detected(self, citation_dataset_module):
        dataset = citation_dataset_module
        from repro.graph.digraph import SocialGraph
        from repro.topics.edges import TopicEdgeWeights

        other = SocialGraph.from_edges(2, [(0, 1)])
        weights = TopicEdgeWeights(other, np.full((1, 8), 0.1))
        with pytest.raises(ValidationError, match="different graph"):
            Octopus(
                dataset.graph,
                dataset.true_topic_model,
                weights,
                dataset.user_keywords,
            )

    def test_dataset_without_ground_truth_needs_learning(
        self, citation_dataset_module
    ):
        import dataclasses

        stripped = dataclasses.replace(
            citation_dataset_module,
            true_topic_model=None,
            true_edge_weights=None,
        )
        with pytest.raises(ValidationError, match="learn_model"):
            Octopus.from_dataset(stripped)


class TestKeywordParsing:
    def test_single_keyword(self, system):
        assert system.parse_keywords("data mining") == ("data mining",)

    def test_comma_separated(self, system):
        parsed = system.parse_keywords("data mining, clustering")
        assert parsed == ("data mining", "clustering")

    def test_list_input(self, system):
        assert system.parse_keywords(["Clustering"]) == ("clustering",)

    def test_unknown_keyword_suggests(self, system):
        with pytest.raises(ValidationError, match="did you mean"):
            system.parse_keywords("data minin")

    def test_empty_rejected(self, system):
        with pytest.raises(ValidationError, match="no keywords"):
            system.parse_keywords("  ,  ")

    def test_derive_gamma_is_simplex(self, system):
        gamma = system.derive_gamma("data mining")
        assert gamma.sum() == pytest.approx(1.0)
        assert gamma.argmax() == 0  # "data mining" is topic 0's name keyword


class TestUserResolution:
    def test_by_id(self, system):
        assert system.resolve_user(3) == 3

    def test_by_name(self, system):
        name = system.graph.label_of(5)
        assert system.resolve_user(name) == 5

    def test_out_of_range_id(self, system):
        with pytest.raises(ValidationError):
            system.resolve_user(10_000)

    def test_unknown_name_suggests(self, system):
        prefix = system.graph.label_of(0)[:3]
        with pytest.raises(ValidationError, match="unknown user"):
            system.resolve_user(prefix + "zzzzz")

    def test_bool_rejected(self, system):
        with pytest.raises(ValidationError):
            system.resolve_user(True)


class TestServicesPlumbing:
    def test_find_influencers_deterministic_recompute(self, system):
        # The facade is a pure compute backend (caching lives in the
        # service layer); repeated queries recompute to the same answer.
        first = system.find_influencers("data mining", k=3)
        second = system.find_influencers("data mining", k=3)
        assert first.seeds == second.seeds
        assert first is not second

    def test_default_k(self, system):
        result = system.find_influencers("clustering")
        assert len(result.seeds) <= system.config.default_k
        assert result.query.k == system.config.default_k

    def test_suggest_by_name(self, system):
        user = next(iter(system.user_keywords))
        name = system.graph.label_of(user)
        result = system.suggest_keywords(name, k=2)
        assert result.target == user
        assert 1 <= len(result.keywords) <= 2

    def test_explore_paths_with_keywords(self, system):
        tree = system.explore_paths(0, keywords="data mining", threshold=0.05)
        assert tree.root == 0
        np.testing.assert_allclose(tree.gamma, system.derive_gamma("data mining"))

    def test_explore_paths_default_uniform(self, system):
        tree = system.explore_paths(0, threshold=0.05)
        np.testing.assert_allclose(tree.gamma, 1.0 / 8)

    def test_autocomplete_users(self, system):
        label = system.graph.label_of(0)
        completions = system.autocomplete_users(label[:2], limit=5)
        assert any(name == label for name, _node in completions)

    def test_autocomplete_keywords(self, system):
        completions = system.autocomplete_keywords("data", limit=5)
        assert any(key == "data mining" for key, _wid in completions)

    def test_radar_payload(self, system):
        payload = system.radar("em algorithm")
        assert payload["dominant"] == "machine learning"

    def test_statistics_keys(self, system):
        system.find_influencers("data mining", k=3)
        stats = system.statistics()
        assert "seconds.build.influencer_index" in stats
        assert "graph.num_nodes" in stats
        # cache counters moved up to the service layer with the cache
        assert not any(key.startswith("cache.") for key in stats)

    def test_learn_model_pipeline(self, citation_dataset_module):
        from repro.topics.em import EMConfig

        config = OctopusConfig(
            num_sketches=30,
            num_topic_samples=4,
            topic_sample_rr_sets=200,
            oracle_samples=20,
            seed=3,
        )
        system = Octopus.from_dataset(
            citation_dataset_module,
            config=config,
            learn_model=True,
            em_config=EMConfig(num_topics=8, max_iterations=5, seed=0),
        )
        result = system.find_influencers("data mining", k=3)
        assert len(result.seeds) == 3


class TestExecutionBackends:
    def test_config_validates_backend_name(self):
        with pytest.raises(ValidationError):
            OctopusConfig(execution_backend="quantum")
        with pytest.raises(ValidationError):
            OctopusConfig(workers=0)

    def test_config_validates_rr_kernel(self):
        for retired_or_unknown in ("cuda", "legacy"):
            with pytest.raises(ValidationError):
                OctopusConfig(rr_kernel=retired_or_unknown)
        assert OctopusConfig().rr_kernel == "vectorized"
        assert OctopusConfig(rr_kernel="native").rr_kernel == "native"

    def test_statistics_report_kernel_provenance(self, system):
        """`execution.rr_kernel` + native provenance surface in stats."""
        from repro.propagation.native import kernel_provenance

        stats = system.statistics()
        assert stats["execution.rr_kernel"] == system.config.rr_kernel
        assert stats["execution.native_kernel"] == kernel_provenance()
        assert stats["execution.native_kernel"] in (
            "native-compiled",
            "native-fallback",
        )

    def test_builds_agree_on_every_backend(self, citation_dataset_module):
        """serial, threads and processes builds answer queries identically."""
        answers = []
        for backend_name, workers in (
            ("serial", None),
            ("threads", 2),
            ("processes", 2),
        ):
            config = OctopusConfig(
                num_sketches=20,
                num_topic_samples=3,
                topic_sample_rr_sets=120,
                oracle_samples=10,
                execution_backend=backend_name,
                workers=workers,
                seed=91,
            )
            with Octopus.from_dataset(
                citation_dataset_module, config=config
            ) as system:
                result = system.find_influencers("data mining", 3)
                answers.append((result.seeds, result.spread))
                assert system.execution.name == backend_name
                assert system.statistics()["execution.workers"] == float(
                    workers or 1
                )
        assert answers[0] == answers[1] == answers[2]
