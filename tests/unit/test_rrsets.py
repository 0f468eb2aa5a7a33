"""Unit tests for repro.propagation.rrsets."""

import numpy as np
import pytest

from reference.rrsets import generate_rr_set
from repro.backend import ProcessPoolBackend, ThreadPoolBackend
from repro.propagation.ic import IndependentCascade
from repro.propagation.rrsets import RRSetCollection
from repro.utils.validation import ValidationError


class TestGenerateRRSet:
    def test_contains_root(self, line_graph):
        rr = generate_rr_set(line_graph, np.zeros(3), 2, seed=0)
        assert rr == {2}

    def test_deterministic_edges_reach_all_ancestors(self, line_graph):
        rr = generate_rr_set(line_graph, np.ones(3), 3, seed=0)
        assert rr == {0, 1, 2, 3}

    def test_respects_direction(self, line_graph):
        rr = generate_rr_set(line_graph, np.ones(3), 0, seed=0)
        assert rr == {0}  # nothing points into node 0

    def test_invalid_root(self, line_graph):
        with pytest.raises(ValidationError):
            generate_rr_set(line_graph, np.ones(3), 9)


class TestRRSetCollection:
    def test_requires_sets(self, line_graph):
        with pytest.raises(ValidationError):
            RRSetCollection(line_graph, [])

    def test_sample_count(self, medium_graph, medium_probabilities):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 50, seed=0
        )
        assert len(collection) == 50

    def test_coverage_of(self, line_graph):
        collection = RRSetCollection(line_graph, [{0, 1}, {1, 2}, {3}])
        packed = collection.packed
        assert packed.sets_containing(1).size == 2
        assert packed.sets_containing(3).size == 1
        assert packed.sets_containing(99).size == 0

    def test_estimate_spread_formula(self, line_graph):
        collection = RRSetCollection(line_graph, [{0, 1}, {1, 2}, {3}, {2}])
        # seeds {1} cover 2 of 4 sets; n = 4 → spread = 4 * 2/4 = 2.
        assert collection.estimate_spread([1]) == pytest.approx(2.0)
        assert collection.estimate_spread([0, 3]) == pytest.approx(2.0)

    def test_estimator_agrees_with_monte_carlo(
        self, medium_graph, medium_probabilities
    ):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 6000, seed=1
        )
        cascade = IndependentCascade(medium_graph, medium_probabilities)
        seeds = [0, 1]
        ris = collection.estimate_spread(seeds)
        mc = cascade.estimate_spread(seeds, num_samples=2000, seed=2)
        assert ris == pytest.approx(mc, rel=0.15, abs=1.0)

    def test_greedy_max_cover_prefers_high_coverage(self, line_graph):
        collection = RRSetCollection(
            line_graph, [{0, 1}, {1, 2}, {1, 3}, {0}]
        )
        seeds, spread = collection.greedy_max_cover(1)
        assert seeds == [1]
        assert spread == pytest.approx(4 * 3 / 4)

    def test_greedy_max_cover_diminishing(self, line_graph):
        collection = RRSetCollection(
            line_graph, [{0, 1}, {1, 2}, {1, 3}, {0}]
        )
        seeds, spread = collection.greedy_max_cover(2)
        assert seeds[0] == 1
        assert seeds[1] == 0
        assert spread == pytest.approx(4.0)

    def test_greedy_stops_when_everything_covered(self, line_graph):
        collection = RRSetCollection(line_graph, [{0}, {0, 1}])
        seeds, _spread = collection.greedy_max_cover(3)
        assert seeds == [0]

    def test_fixed_roots(self, line_graph):
        collection = RRSetCollection.sample(
            line_graph, np.zeros(3), 4, seed=0, roots=[3]
        )
        assert all(rr == {3} for rr in collection.rr_sets)

    @pytest.mark.parametrize("roots", [[9], []])
    def test_invalid_fixed_root(self, line_graph, roots):
        with pytest.raises(ValidationError):
            RRSetCollection.sample(line_graph, np.zeros(3), 4, seed=0, roots=roots)

    def test_shared_generator_advances_stream(
        self, medium_graph, medium_probabilities
    ):
        """Passing one Generator across calls must consume it (no rewrap)."""
        rng = np.random.default_rng(7)
        first = generate_rr_set(medium_graph, medium_probabilities, 0, rng)
        second = generate_rr_set(medium_graph, medium_probabilities, 0, rng)
        replay = np.random.default_rng(7)
        assert first == generate_rr_set(
            medium_graph, medium_probabilities, 0, replay
        )
        assert second == generate_rr_set(
            medium_graph, medium_probabilities, 0, replay
        )


class TestPackedStorage:
    """The collection is packed internally; the set view is derived."""

    def test_accepts_packed_batches(self, line_graph):
        from repro.propagation.packed import PackedRRSets

        packed = PackedRRSets.from_sets(4, [{0, 1}, {1, 2}, {3}])
        collection = RRSetCollection(line_graph, packed)
        assert len(collection) == 3
        assert collection.rr_sets == [{0, 1}, {1, 2}, {3}]
        assert collection.packed.sets_containing(1).size == 2

    def test_packed_and_set_construction_agree(
        self, medium_graph, medium_probabilities
    ):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 150, seed=12
        )
        rebuilt = RRSetCollection(medium_graph, collection.rr_sets)
        assert rebuilt.estimate_spread([0, 5]) == pytest.approx(
            collection.estimate_spread([0, 5])
        )
        assert rebuilt.greedy_max_cover(4) == collection.greedy_max_cover(4)

    def test_greedy_matches_reference_implementation(
        self, medium_graph, medium_probabilities
    ):
        """Vectorized greedy equals a straightforward set-based greedy.

        Tie-breaking contract: among max-coverage nodes, pick the one that
        appears first in the packed batch (the membership-dict insertion
        order of the historical implementation).
        """
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 250, seed=21
        )
        rr_sets = collection.rr_sets
        first_seen = {}
        for position, node in enumerate(collection.packed.nodes.tolist()):
            first_seen.setdefault(node, position)
        chosen, remaining = [], list(range(len(rr_sets)))
        for _ in range(5):
            counts = {}
            for index in remaining:
                for node in rr_sets[index]:
                    counts[node] = counts.get(node, 0) + 1
            if not counts:
                break
            best_cover = max(counts.values())
            best = min(
                (node for node, count in counts.items() if count == best_cover),
                key=first_seen.__getitem__,
            )
            if best_cover <= 0:
                break
            chosen.append(best)
            remaining = [
                index for index in remaining if best not in rr_sets[index]
            ]
        seeds, spread = collection.greedy_max_cover(5)
        assert seeds == chosen
        covered = len(rr_sets) - len(remaining)
        assert spread == pytest.approx(
            medium_graph.num_nodes * covered / len(rr_sets)
        )


class TestParallelSampling:
    """Acceptance bar: same seed ⇒ identical collection on every backend."""

    def test_backends_agree_exactly(self, medium_graph, medium_probabilities):
        # No backend argument means the a SerialBackend: same universe.
        serial = RRSetCollection.sample(
            medium_graph, medium_probabilities, 700, seed=31
        )
        with ThreadPoolBackend(4) as threads:
            threaded = RRSetCollection.sample(
                medium_graph, medium_probabilities, 700, seed=31, backend=threads
            )
        with ProcessPoolBackend(4) as processes:
            forked = RRSetCollection.sample(
                medium_graph,
                medium_probabilities,
                700,
                seed=31,
                backend=processes,
            )
        assert serial.rr_sets == threaded.rr_sets  # same sets, same order
        assert serial.rr_sets == forked.rr_sets

    def test_worker_count_does_not_matter(
        self, medium_graph, medium_probabilities
    ):
        with ThreadPoolBackend(2) as two, ThreadPoolBackend(7) as seven:
            a = RRSetCollection.sample(
                medium_graph, medium_probabilities, 300, seed=5, backend=two
            )
            b = RRSetCollection.sample(
                medium_graph, medium_probabilities, 300, seed=5, backend=seven
            )
        assert a.rr_sets == b.rr_sets

    def test_membership_index_matches_serial(
        self, medium_graph, medium_probabilities
    ):
        with ThreadPoolBackend(3) as backend:
            parallel = RRSetCollection.sample(
                medium_graph, medium_probabilities, 200, seed=9, backend=backend
            )
        rebuilt = RRSetCollection(medium_graph, list(parallel.rr_sets))
        for node in range(medium_graph.num_nodes):
            assert (
                parallel.packed.sets_containing(node).size
                == rebuilt.packed.sets_containing(node).size
            )

    def test_parallel_roots_preserved(self, line_graph):
        with ThreadPoolBackend(2) as backend:
            collection = RRSetCollection.sample(
                line_graph, np.zeros(3), 6, seed=0, roots=[2], backend=backend
            )
        assert all(rr == {2} for rr in collection.rr_sets)


class TestCollectionInvariants:
    """Structural invariants the estimators rest on."""

    def test_coverage_matches_spread_estimate(
        self, medium_graph, medium_probabilities
    ):
        """n · |sets containing v| / R  ==  estimate_spread([v]) for every v."""
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 400, seed=3
        )
        n, total = medium_graph.num_nodes, len(collection)
        for node in range(0, medium_graph.num_nodes, 17):
            assert collection.estimate_spread([node]) == pytest.approx(
                n * collection.packed.sets_containing(node).size / total
            )

    def test_every_rr_set_contains_a_node_of_the_graph(
        self, medium_graph, medium_probabilities
    ):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 100, seed=4
        )
        for rr_set in collection.rr_sets:
            assert rr_set
            assert all(0 <= node < medium_graph.num_nodes for node in rr_set)

    def test_greedy_spread_never_exceeds_union_bound(
        self, medium_graph, medium_probabilities
    ):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 500, seed=6
        )
        seeds, spread = collection.greedy_max_cover(5)
        assert spread <= medium_graph.num_nodes
        assert spread == pytest.approx(collection.estimate_spread(seeds))

    def test_spread_monotone_in_seed_set(
        self, medium_graph, medium_probabilities
    ):
        collection = RRSetCollection.sample(
            medium_graph, medium_probabilities, 300, seed=8
        )
        assert collection.estimate_spread([0, 1]) >= collection.estimate_spread(
            [0]
        )
