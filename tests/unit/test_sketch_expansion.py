"""Seed-stability of the influencer-index sketch expansion core.

Expansion is frontier-batched: one threshold array per frontier batch.  It
is self-deterministic — the same seed produces the same sketches
regardless of budget boundaries (eager vs. chunked delayed
materialization), build backend, or worker count — and every sketch it
builds is a valid reverse potential-world sample.
"""

from __future__ import annotations

from typing import Set

import numpy as np
import pytest

from repro.core.influencer_index import InfluencerIndex
from repro.graph.generators import preferential_attachment_digraph
from repro.topics.edges import TopicEdgeWeights

GAMMA = np.array([0.6, 0.25, 0.1, 0.05])


@pytest.fixture(scope="module")
def weights() -> TopicEdgeWeights:
    graph = preferential_attachment_digraph(150, 3, seed=91)
    return TopicEdgeWeights.weighted_cascade(graph, 4, seed=92)


def fingerprint(index: InfluencerIndex):
    """Everything randomness touches in a sketch, per sketch."""
    return [
        (
            sketch.root,
            sorted(sketch.nodes),
            sketch.edge_sources,
            sketch.edge_targets,
            sketch.edge_ids,
            sketch.edge_thresholds,
            sketch.edges_pruned,
        )
        for sketch in index.sketches
    ]


def materialize_all(index: InfluencerIndex) -> InfluencerIndex:
    for sketch_index in range(index.num_sketches):
        index._materialize(sketch_index)
    return index


class TestFrontierModeDeterminism:
    """Same seed ⇒ same sketches, however the work is scheduled."""

    def test_budget_boundaries_are_invisible(self, weights):
        eager = materialize_all(InfluencerIndex(weights, num_sketches=40, seed=18))
        for chunk_size in (1, 3, 17):
            lazy = InfluencerIndex(
                weights, num_sketches=40, chunk_size=chunk_size, seed=18
            )
            materialize_all(lazy)
            assert fingerprint(lazy) == fingerprint(eager)

    def test_backends_and_worker_counts_are_invisible(self, weights):
        from repro.backend import (
            ProcessPoolBackend,
            SerialBackend,
            ThreadPoolBackend,
        )

        reference = InfluencerIndex(weights, num_sketches=40, seed=19)
        for make in (
            SerialBackend,
            lambda: ThreadPoolBackend(4),
            lambda: ProcessPoolBackend(2),
        ):
            with make() as backend:
                built = InfluencerIndex(
                    weights, num_sketches=40, seed=19, backend=backend
                )
            assert fingerprint(built) == fingerprint(reference)

    def test_delayed_materialization_continues_the_stream(self, weights):
        eager = InfluencerIndex(weights, num_sketches=30, seed=20)
        lazy = InfluencerIndex(weights, num_sketches=30, chunk_size=2, seed=20)
        assert any(not sketch.complete for sketch in lazy.sketches)
        for user in (0, 5, 40):
            assert lazy.estimate_user_spread(user, GAMMA) == pytest.approx(
                eager.estimate_user_spread(user, GAMMA)
            )


class TestFrontierModeDistribution:
    """Every sketch is a valid reverse potential-world sample."""

    def test_edge_thresholds_respect_the_envelope(self, weights):
        index = InfluencerIndex(weights, num_sketches=30, seed=21)
        envelope = weights.max_over_topics()
        for sketch in index.sketches:
            for edge_id, theta in zip(sketch.edge_ids, sketch.edge_thresholds):
                assert theta <= envelope[edge_id]

    def test_sketch_membership_is_reverse_reachable(self, weights):
        """Every sketch node must reach the root through recorded edges."""
        index = InfluencerIndex(weights, num_sketches=20, seed=22)
        for sketch in index.sketches:
            reached: Set[int] = {sketch.root}
            # Edges are appended in discovery order: walking them forward
            # must connect every recorded target before its sources.
            for source, target in zip(sketch.edge_sources, sketch.edge_targets):
                assert target in reached
                reached.add(source)
            assert reached == sketch.nodes
