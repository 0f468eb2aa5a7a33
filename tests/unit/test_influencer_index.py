"""Unit tests for repro.core.influencer_index."""

import numpy as np
import pytest

from repro.core.influencer_index import InfluencerIndex
from repro.propagation.ic import IndependentCascade
from repro.topics.edges import TopicEdgeWeights
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def setup():
    from repro.graph.generators import preferential_attachment_digraph

    graph = preferential_attachment_digraph(120, 3, seed=31)
    weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=32)
    index = InfluencerIndex(weights, num_sketches=400, seed=33)
    return graph, weights, index


GAMMA = np.array([0.5, 0.3, 0.1, 0.1])


class TestConstruction:
    def test_sketch_count(self, setup):
        _graph, _weights, index = setup
        assert len(index.sketches) == 400

    def test_sketches_complete_with_large_chunk(self, setup):
        _graph, _weights, index = setup
        assert all(sketch.complete for sketch in index.sketches)

    def test_lazy_pruning_drops_impossible_edges(self, setup):
        _graph, weights, index = setup
        stats = index.statistics()
        assert stats["edges_pruned_permanently"] > 0

    def test_edges_within_envelope(self, setup):
        _graph, weights, index = setup
        envelope = weights.max_over_topics()
        for sketch in index.sketches[:20]:
            for edge_id, theta in zip(sketch.edge_ids, sketch.edge_thresholds):
                assert theta <= envelope[edge_id]

    def test_membership_index_consistent(self, setup):
        _graph, _weights, index = setup
        for sketch_index, sketch in enumerate(index.sketches[:50]):
            for node in sketch.nodes:
                assert sketch_index in index.sketches_containing(node)

    def test_invalid_sketch_count(self, setup):
        _graph, weights, _index = setup
        with pytest.raises(ValidationError):
            InfluencerIndex(weights, num_sketches=0)


class TestEstimates:
    def test_matches_monte_carlo_single_user(self, setup):
        graph, weights, index = setup
        probabilities = weights.edge_probabilities(GAMMA)
        cascade = IndependentCascade(graph, probabilities)
        # Pick a high-influence user for good signal-to-noise.
        user = int(np.argmax(graph.out_degree()))
        mc = cascade.estimate_spread([user], num_samples=1500, seed=0)
        indexed = index.estimate_user_spread(user, GAMMA)
        assert indexed == pytest.approx(mc, rel=0.3, abs=2.5)

    def test_seed_set_estimate_at_least_single(self, setup):
        _graph, _weights, index = setup
        single = index.estimate_user_spread(0, GAMMA)
        multiple = index.estimate_seed_set_spread([0, 1, 2], GAMMA)
        assert multiple >= single - 1e-9

    def test_many_gammas_consistent_with_single(self, setup):
        _graph, _weights, index = setup
        gammas = np.stack([GAMMA, np.array([0.1, 0.1, 0.4, 0.4])])
        many = index.estimate_user_spread_many(5, gammas)
        assert many[0] == pytest.approx(index.estimate_user_spread(5, GAMMA))

    def test_monotone_coupling_across_gammas(self):
        """Within one index the thresholds are shared across queries, so a
        topic whose edge probabilities dominate another's elementwise must
        yield pointwise-larger estimates (exact coupling, no noise)."""
        from repro.graph.generators import preferential_attachment_digraph
        from repro.utils.rng import as_generator

        graph = preferential_attachment_digraph(100, 3, seed=55)
        rng = as_generator(56)
        strong = rng.random(graph.num_edges) * 0.5 + 0.2
        weak = strong * 0.4  # dominated elementwise
        weights = TopicEdgeWeights(graph, np.column_stack([strong, weak]))
        index = InfluencerIndex(weights, num_sketches=150, seed=57)
        strong_gamma = np.array([1.0, 0.0])
        weak_gamma = np.array([0.0, 1.0])
        for user in range(0, 100, 9):
            assert index.estimate_user_spread(
                user, weak_gamma
            ) <= index.estimate_user_spread(user, strong_gamma) + 1e-9

    def test_empty_seed_set(self, setup):
        _graph, _weights, index = setup
        assert index.estimate_seed_set_spread([], GAMMA) == 0.0

    def test_invalid_user(self, setup):
        _graph, _weights, index = setup
        with pytest.raises(ValidationError):
            index.estimate_user_spread(9999, GAMMA)

    def test_invalid_gamma_size(self, setup):
        _graph, _weights, index = setup
        with pytest.raises(ValidationError):
            index.estimate_user_spread(0, np.array([0.5, 0.5]))


class TestDelayedMaterialization:
    def test_chunked_index_expands_on_demand(self):
        from repro.graph.generators import preferential_attachment_digraph

        graph = preferential_attachment_digraph(120, 3, seed=41)
        weights = TopicEdgeWeights.weighted_cascade(graph, 4, seed=42)
        eager = InfluencerIndex(weights, num_sketches=100, seed=43)
        lazy = InfluencerIndex(
            weights, num_sketches=100, chunk_size=1, seed=43
        )
        incomplete_before = sum(
            1 for sketch in lazy.sketches if not sketch.complete
        )
        # With chunk_size=1 most sketches should still have a frontier.
        assert incomplete_before > 0
        # Estimates must agree exactly: same seeds → same thresholds, and
        # expansion is deterministic.
        for user in (0, 3, 10):
            assert lazy.estimate_user_spread(user, GAMMA) == pytest.approx(
                eager.estimate_user_spread(user, GAMMA)
            )

    def test_statistics_keys(self, setup):
        _graph, _weights, index = setup
        stats = index.statistics()
        assert {
            "num_sketches",
            "total_edges",
            "total_nodes",
            "edges_pruned_permanently",
            "complete_sketches",
        } <= set(stats)


class TestParallelBuild:
    """Per-sketch RNG streams make partitioned builds exact, not approximate."""

    def _fingerprint(self, index):
        return [
            (
                sketch.root,
                sorted(sketch.nodes),
                sketch.edge_sources,
                sketch.edge_targets,
                sketch.edge_thresholds,
                sketch.edges_pruned,
            )
            for sketch in index.sketches
        ]

    def test_backend_build_matches_serial_exactly(self, setup):
        from repro.backend import ProcessPoolBackend, SerialBackend, ThreadPoolBackend

        _graph, weights, _index = setup
        reference = InfluencerIndex(weights, num_sketches=60, seed=71)
        for make in (
            SerialBackend,
            lambda: ThreadPoolBackend(4),
            lambda: ProcessPoolBackend(2),
        ):
            with make() as backend:
                built = InfluencerIndex(
                    weights, num_sketches=60, seed=71, backend=backend
                )
            assert self._fingerprint(built) == self._fingerprint(reference)

    def test_delayed_materialization_continues_adopted_streams(self, setup):
        """After a forked build, on-demand expansion must replay the serial
        stream — the adopted RNG state is the serial state."""
        from repro.backend import ProcessPoolBackend

        _graph, weights, _index = setup
        serial = InfluencerIndex(weights, num_sketches=40, chunk_size=5, seed=72)
        with ProcessPoolBackend(2) as backend:
            forked = InfluencerIndex(
                weights, num_sketches=40, chunk_size=5, seed=72, backend=backend
            )
        for user in (0, 7, 50):
            assert forked.estimate_user_spread(
                user, GAMMA
            ) == serial.estimate_user_spread(user, GAMMA)
        assert self._fingerprint(forked) == self._fingerprint(serial)

    def test_concurrent_queries_materialize_safely(self, setup):
        import sys
        import threading

        _graph, weights, _index = setup
        index = InfluencerIndex(weights, num_sketches=60, chunk_size=4, seed=73)
        reference = InfluencerIndex(
            weights, num_sketches=60, chunk_size=4, seed=73
        )
        # Every thread's first query hits the index before materialization.
        assert not all(sketch.complete for sketch in index.sketches)
        users = list(range(0, 60, 3))
        gammas = np.stack([GAMMA, np.array([0.1, 0.2, 0.3, 0.4])])
        results = {}
        start = threading.Barrier(len(users))

        def query(user: int) -> None:
            start.wait()
            results[user] = (
                index.estimate_user_spread(user, GAMMA),
                index.estimate_user_spread_many(user, gammas).tolist(),
                index.estimate_seed_set_spread([user, user + 1], GAMMA),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [
                threading.Thread(target=query, args=(user,)) for user in users
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for user in users:
            assert results[user] == (
                reference.estimate_user_spread(user, GAMMA),
                reference.estimate_user_spread_many(user, gammas).tolist(),
                reference.estimate_seed_set_spread([user, user + 1], GAMMA),
            )
        assert all(sketch.complete for sketch in index.sketches)


def _brute_force_hits(index, seeds, gamma):
    """Count the sketches whose root a seed reaches, scanning all of them.

    Independent of the index's own query path: liveness is recomputed from
    the topic weights, then a reverse BFS runs from every root.
    """
    seeds = set(seeds)
    hits = 0
    for sketch in index.sketches:
        assert sketch.complete
        rows = np.asarray(sketch.edge_ids, dtype=np.int64)
        live = index.edge_weights.weights[rows] @ gamma >= np.asarray(
            sketch.edge_thresholds
        )
        reached = {sketch.root}
        changed = True
        while changed:
            changed = False
            for position in np.flatnonzero(live):
                if (
                    sketch.edge_targets[position] in reached
                    and sketch.edge_sources[position] not in reached
                ):
                    reached.add(sketch.edge_sources[position])
                    changed = True
        hits += not seeds.isdisjoint(reached)
    return hits


def _count_sketch_visits(index, monkeypatch):
    """Record every call of *index*'s per-sketch evaluators and expansion."""
    calls = []
    for name in ("_live_reachable", "_reaches_root", "_materialize"):
        original = getattr(index, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(index, name, counted)
    return calls


def index_estimate(index, seeds, gamma):
    """The RIS estimate ``n · hits / R`` from a brute-force hit count."""
    hits = _brute_force_hits(index, seeds, gamma)
    return index.graph.num_nodes * hits / index.num_sketches


class TestInvertedMapQueries:
    """Spread queries visit only postings, yet equal a scan of every sketch."""

    GAMMAS = np.array(
        [[0.5, 0.3, 0.1, 0.1], [0.1, 0.1, 0.4, 0.4], [0.0, 0.0, 0.0, 1.0]]
    )

    @pytest.fixture(scope="class")
    def weights(self):
        from repro.graph.generators import preferential_attachment_digraph

        graph = preferential_attachment_digraph(60, 2, seed=81)
        return TopicEdgeWeights.weighted_cascade(graph, 4, seed=82)

    @pytest.mark.parametrize("chunk_size", [100_000, 1])
    def test_every_node_matches_brute_force(self, weights, chunk_size):
        index = InfluencerIndex(
            weights, num_sketches=50, chunk_size=chunk_size, seed=83
        )
        if chunk_size == 1:
            assert not all(sketch.complete for sketch in index.sketches)
        # The first query completes the lazy index; brute force reads it after.
        many = {
            user: index.estimate_user_spread_many(user, self.GAMMAS)
            for user in range(weights.graph.num_nodes)
        }
        for user in range(weights.graph.num_nodes):
            for row, gamma in enumerate(self.GAMMAS):
                expected = index_estimate(index, [user], gamma)
                assert index.estimate_user_spread(user, gamma) == expected
                assert many[user][row] == expected
                pair = [user, (user * 7 + 3) % weights.graph.num_nodes]
                assert index.estimate_seed_set_spread(pair, gamma) == (
                    index_estimate(index, pair, gamma)
                )

    def test_postings_are_the_sketch_members(self, weights):
        lazy = InfluencerIndex(weights, num_sketches=50, chunk_size=1, seed=83)
        for node in range(weights.graph.num_nodes):
            assert lazy.sketches_containing(node) == [
                position
                for position, sketch in enumerate(lazy.sketches)
                if node in sketch.nodes
            ]

    def test_user_in_no_sketch_touches_no_sketch(self, weights, monkeypatch):
        index = InfluencerIndex(weights, num_sketches=20, seed=84)
        absent = [
            node
            for node in range(weights.graph.num_nodes)
            if not index.sketches_containing(node)
        ]
        assert absent
        calls = _count_sketch_visits(index, monkeypatch)
        for user in absent:
            assert index.estimate_user_spread(user, GAMMA) == 0.0
            assert index.estimate_user_spread_many(user, self.GAMMAS).tolist() == [
                0.0,
                0.0,
                0.0,
            ]
            assert index.estimate_seed_set_spread([user], GAMMA) == 0.0
        assert calls == []
        # A member of some sketch does reach the evaluators.
        index.estimate_user_spread(index.sketches[0].root, GAMMA)
        assert calls


def _suggest_system(dataset, chunk_size):
    from repro.core.octopus import Octopus, OctopusConfig

    config = OctopusConfig(
        use_topic_samples=False,
        num_sketches=120,
        sketch_chunk_size=chunk_size,
        seed=86,
    )
    return Octopus.from_dataset(dataset, config=config)


def _suggest_payload(result):
    return [
        result.target,
        result.keywords,
        result.spread,
        result.gamma.tolist(),
        sorted(result.per_keyword_spread.items()),
        sorted(result.statistics.items()),
    ]


class TestSuggestAnswersPinned:
    """Walking postings instead of every sketch changed no suggest answer."""

    @pytest.mark.parametrize("chunk_size", [1_000_000, 2])
    def test_suggest_digest(self, citation_dataset, chunk_size):
        import hashlib
        import json

        system = _suggest_system(citation_dataset, chunk_size)
        users = sorted(system.user_keywords)[:60]
        payload = [
            _suggest_payload(system.suggest_keywords(user, k=3))
            for user in users
        ] + [
            _suggest_payload(system.suggest_keywords(user, k=2, method="exact"))
            for user in users[:8]
        ]
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        # Computed by the full-scan evaluator this one replaced, on both
        # an eager and a lazily materialised index.
        assert digest == (
            "2005f4f81539f64240f5404375c1283ba53e44f2ebadd3c0e43b2a38e531d553"
        )

    def test_user_in_no_sketch_keeps_its_evaluation_count(
        self, citation_dataset, monkeypatch
    ):
        system = _suggest_system(citation_dataset, 1_000_000)
        index = system.influencer_index
        user = next(
            user
            for user in sorted(system.user_keywords)
            if not index.sketches_containing(user)
        )
        calls = _count_sketch_visits(index, monkeypatch)
        result = system.suggest_keywords(user, k=3)
        assert calls == []
        assert result.spread == 0.0
        # The full-scan evaluator's counts for this user.
        assert (user, result.statistics) == (
            10,
            {
                "candidates_total": 13.0,
                "candidates_after_pruning": 13.0,
                "set_evaluations": 24.0,
            },
        )
