"""Cross-component validation: independent estimators must agree.

The library contains four independent ways to compute an influence spread
(forward Monte-Carlo, live-edge world ensembles, RR-set collections, and
the influencer index's sketches) plus one deterministic approximation
(MIA).  On a shared model they must agree within sampling error — a strong
end-to-end consistency check across the propagation, im and core layers.
"""

import numpy as np
import pytest

from reference.estimators import RRSetSpreadEstimator
from reference.mia import MIAModel
from reference.worlds import WorldEnsemble
from repro.core.influencer_index import InfluencerIndex
from repro.propagation.estimators import MonteCarloSpreadEstimator


@pytest.fixture(scope="module")
def shared_model(citation_dataset):
    gamma = citation_dataset.true_topic_model.keyword_topic_posterior(
        ["data mining"]
    )
    probabilities = citation_dataset.true_edge_weights.edge_probabilities(gamma)
    return citation_dataset, gamma, probabilities


class TestEstimatorAgreement:
    def test_four_estimators_agree_on_singletons(self, shared_model):
        dataset, gamma, probabilities = shared_model
        graph = dataset.graph
        user = int(np.argmax(graph.out_degree()))

        mc = MonteCarloSpreadEstimator(
            graph, probabilities, num_samples=1200, seed=1
        ).spread([user])
        worlds = WorldEnsemble(graph, 1200, seed=2).estimate_spread(
            [user], probabilities
        )
        ris = RRSetSpreadEstimator(
            graph, probabilities, num_sets=6000, seed=3
        ).spread([user])
        index = InfluencerIndex(
            dataset.true_edge_weights, num_sketches=1200, seed=4
        ).estimate_user_spread(user, gamma)

        reference = mc
        for name, estimate in [
            ("worlds", worlds),
            ("ris", ris),
            ("influencer_index", index),
        ]:
            assert estimate == pytest.approx(reference, rel=0.25, abs=2.0), (
                f"{name} estimate {estimate:.2f} disagrees with MC "
                f"{reference:.2f}"
            )

    def test_estimators_agree_on_seed_sets(self, shared_model):
        dataset, gamma, probabilities = shared_model
        graph = dataset.graph
        seeds = list(np.argsort(-graph.out_degree())[:3])

        mc = MonteCarloSpreadEstimator(
            graph, probabilities, num_samples=1000, seed=5
        ).spread(seeds)
        ris = RRSetSpreadEstimator(
            graph, probabilities, num_sets=6000, seed=6
        ).spread(seeds)
        index = InfluencerIndex(
            dataset.true_edge_weights, num_sketches=1000, seed=7
        ).estimate_seed_set_spread(seeds, gamma)

        assert ris == pytest.approx(mc, rel=0.2, abs=2.0)
        assert index == pytest.approx(mc, rel=0.25, abs=2.5)

    def test_mia_tracks_monte_carlo(self, shared_model):
        """MIA is an approximation, not an estimator, but on sparse graphs
        it should land in the same range and preserve the ranking of a
        strong vs a weak seed."""
        dataset, _gamma, probabilities = shared_model
        graph = dataset.graph
        model = MIAModel(graph, probabilities, threshold=0.005)
        mc = MonteCarloSpreadEstimator(
            graph, probabilities, num_samples=800, seed=8
        )
        strong = int(np.argmax(graph.out_degree()))
        weak = int(np.argmin(graph.out_degree()))
        assert model.spread([strong]) > model.spread([weak])
        assert model.spread([strong]) == pytest.approx(
            mc.spread([strong]), rel=0.4, abs=3.0
        )


class TestTopicConditioningConsistency:
    def test_sharper_topic_match_gives_larger_spread(self, shared_model):
        """A user whose out-edges are strong on topic z should spread more
        under γ concentrated on z than under the antipodal γ — checked
        through the full keyword path (keywords → γ → spread)."""
        dataset, _gamma, _probabilities = shared_model
        model = dataset.true_topic_model
        index = InfluencerIndex(
            dataset.true_edge_weights, num_sketches=800, seed=9
        )
        affinities = dataset.node_affinities
        graph = dataset.graph
        candidates = [
            user
            for user in range(graph.num_nodes)
            if graph.out_degree(user) >= 8
        ]
        assert candidates
        user = max(candidates, key=lambda u: affinities[u].max())
        own_topic = int(np.argmax(affinities[user]))
        other_topic = int(np.argmin(affinities[user]))
        gamma_own = np.zeros(dataset.num_topics)
        gamma_own[own_topic] = 1.0
        gamma_other = np.zeros(dataset.num_topics)
        gamma_other[other_topic] = 1.0
        assert index.estimate_user_spread(
            user, gamma_own
        ) >= index.estimate_user_spread(user, gamma_other)
