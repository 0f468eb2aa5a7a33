"""Unit tests for repro.propagation.estimators."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.estimators import RRSetSpreadEstimator
from reference.greedy import greedy_im
from repro.graph.digraph import SocialGraph
from repro.graph.generators import preferential_attachment_digraph
from repro.propagation import estimators, ic
from repro.propagation.estimators import MonteCarloSpreadEstimator
from repro.propagation.ic import IndependentCascade
from repro.propagation.native import splitmix64
from repro.propagation.rrsets import RRSetCollection
from repro.utils.validation import ValidationError


def _exact_reach_distribution(graph, probabilities, seeds):
    """P(|reach(seeds)| = s) by enumerating all 2^E live-edge worlds."""
    edges = list(graph.edges())
    distribution = {}
    for pattern in itertools.product([False, True], repeat=len(edges)):
        weight = 1.0
        live = {}
        for (edge_id, source, target), is_live in zip(edges, pattern):
            p = probabilities[edge_id]
            weight *= p if is_live else 1.0 - p
            if is_live:
                live.setdefault(source, []).append(target)
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            for target in live.get(stack.pop(), ()):
                if target not in reached:
                    reached.add(target)
                    stack.append(target)
        distribution[len(reached)] = distribution.get(len(reached), 0.0) + weight
    return distribution


def _world_at_a_time_spread(graph, probabilities, key, num_worlds, seeds):
    """The fixed-world estimate, one world and one Python BFS at a time,
    straight from the definition: edge e is live in world w iff the
    53-bit double of splitmix64(key, w·E + e) is below p_e."""
    num_edges = graph.num_edges
    total = 0
    for world in range(num_worlds):
        counters = np.arange(num_edges, dtype=np.uint64) + np.uint64(world * num_edges)
        coins = (splitmix64(key, counters) >> np.uint64(11)).astype(np.float64)
        live = coins * 2.0**-53 < probabilities
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            node = stack.pop()
            for edge in range(graph.out_offsets[node], graph.out_offsets[node + 1]):
                target = int(graph.out_targets[edge])
                if live[edge] and target not in reached:
                    reached.add(target)
                    stack.append(target)
        total += len(reached)
    return total / num_worlds


#: Six edges: small enough to enumerate every live-edge world.
WORLD_GRAPH = SocialGraph.from_edges(
    5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]
)
WORLD_PROBABILITIES = np.array([0.7, 0.3, 0.5, 0.6, 0.4, 0.2])

#: A small graph for call-sequence properties (world-at-a-time is slow).
SEQUENCE_GRAPH = preferential_attachment_digraph(30, 2, seed=5)
SEQUENCE_PROBABILITIES = np.random.default_rng(6).uniform(
    0.0, 0.6, SEQUENCE_GRAPH.num_edges
)
SEQUENCE_WORLDS = 16

# Half the draws come from four nodes, so sequences often return to a
# candidate after the prefix has grown (what the memo must get right).
_node = st.one_of(st.integers(0, 3), st.integers(0, SEQUENCE_GRAPH.num_nodes - 1))
_call_sequences = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), _node),
        st.tuples(st.just("swap_last"), _node),
        st.tuples(st.just("repeat"), st.just(0)),
        st.tuples(st.just("drop_last"), st.just(0)),
        st.tuples(
            st.just("jump"), st.lists(_node, min_size=1, max_size=4, unique=True)
        ),
    ),
    min_size=1,
    max_size=12,
)


def _seed_sets(operations):
    """Turn operations into the seed sets a caller would evaluate."""
    current = [0]
    for kind, argument in operations:
        if kind == "extend" and argument not in current:
            current = current + [argument]
        elif kind == "swap_last" and argument not in current[:-1]:
            current = current[:-1] + [argument]
        elif kind == "drop_last" and len(current) > 1:
            current = current[:-1]
        elif kind == "jump":
            current = list(argument)
        yield list(current)


class TestMonteCarloEstimator:
    def test_matches_closed_form(self, line_graph):
        p = 0.5
        estimator = MonteCarloSpreadEstimator(
            line_graph, np.full(3, p), num_samples=4000, seed=0
        )
        exact = 1 + p + p**2 + p**3
        assert estimator.spread([0]) == pytest.approx(exact, rel=0.05)

    def test_invalid_samples(self, line_graph):
        with pytest.raises(Exception):
            MonteCarloSpreadEstimator(line_graph, np.ones(3), num_samples=0)

    @pytest.mark.parametrize("seeds", [[0], [0, 2], [3], [1, 2]])
    def test_exact_distribution(self, seeds):
        """σ̂ and the per-world reach sizes match the enumeration of all
        2^6 live-edge worlds."""
        exact = _exact_reach_distribution(WORLD_GRAPH, WORLD_PROBABILITIES, seeds)
        assert abs(sum(exact.values()) - 1.0) < 1e-12
        sigma = sum(size * p for size, p in exact.items())
        variance = sum((size - sigma) ** 2 * p for size, p in exact.items())
        num_worlds = 20000
        estimator = MonteCarloSpreadEstimator(
            WORLD_GRAPH, WORLD_PROBABILITIES, num_samples=num_worlds, seed=11
        )
        estimate = estimator.spread(seeds)
        assert abs(estimate - sigma) <= 4 * np.sqrt(variance / num_worlds) + 1e-12
        # The same key through IndependentCascade: the same worlds.
        reached = IndependentCascade(WORLD_GRAPH, WORLD_PROBABILITIES).sample_reach(
            seeds, num_worlds, seed=11
        )
        assert reached.size / num_worlds == estimate
        sizes = np.bincount(reached // WORLD_GRAPH.num_nodes, minlength=num_worlds)
        frequencies = np.bincount(sizes, minlength=WORLD_GRAPH.num_nodes + 1)
        for size, count in enumerate(frequencies):
            assert count / num_worlds == pytest.approx(exact.get(size, 0.0), abs=0.015)

    @settings(max_examples=40, deadline=None)
    @given(operations=_call_sequences)
    def test_call_order_never_changes_a_value(self, operations):
        """Prefix extensions, jumps and repeats on one estimator give the
        values of a fresh estimator and of world-at-a-time evaluation,
        bit for bit."""
        estimator = MonteCarloSpreadEstimator(
            SEQUENCE_GRAPH, SEQUENCE_PROBABILITIES, num_samples=SEQUENCE_WORLDS, seed=3
        )
        for seeds in _seed_sets(operations):
            value = estimator.spread(seeds)
            fresh = MonteCarloSpreadEstimator(
                SEQUENCE_GRAPH,
                SEQUENCE_PROBABILITIES,
                num_samples=SEQUENCE_WORLDS,
                seed=3,
            ).spread(seeds)
            reference = _world_at_a_time_spread(
                SEQUENCE_GRAPH,
                SEQUENCE_PROBABILITIES,
                estimator.worlds.key,
                SEQUENCE_WORLDS,
                seeds,
            )
            assert value == fresh == reference

    @pytest.mark.parametrize("capacity", [None, 40, 4])
    @settings(max_examples=40, deadline=None)
    @given(operations=_call_sequences)
    def test_memo_never_changes_a_value(self, capacity, operations):
        """Every value of one memoised estimator equals a fresh
        estimator's, at the default memo pool, at a pool of two or three
        reaches, and at a pool of a handful of pairs that holds none."""
        share = (
            estimators._POOL_SHARE
            if capacity is None
            else SEQUENCE_WORLDS * SEQUENCE_GRAPH.num_nodes // capacity
        )

        def estimator():
            return MonteCarloSpreadEstimator(
                SEQUENCE_GRAPH,
                SEQUENCE_PROBABILITIES,
                num_samples=SEQUENCE_WORLDS,
                seed=3,
            )

        with mock.patch.object(estimators, "_POOL_SHARE", share):
            memoised = estimator()
            for seeds in _seed_sets(operations):
                assert memoised.spread(seeds) == estimator().spread(seeds)

    def test_celf_reevaluations_are_answered_from_the_memo(self):
        """Lazy greedy re-evaluates candidates on a growing prefix: with a
        pool those calls walk no cascade, without one every call does, and
        the selection is the same."""

        def run(share):
            with mock.patch.object(estimators, "_POOL_SHARE", share):
                estimator = MonteCarloSpreadEstimator(
                    SEQUENCE_GRAPH, SEQUENCE_PROBABILITIES, num_samples=64, seed=4
                )
                result = greedy_im(
                    SEQUENCE_GRAPH, SEQUENCE_PROBABILITIES, 5, estimator=estimator
                )
                final = estimator.spread(result.seeds)
            return result.seeds, result.marginal_gains, final, estimator

        seeds, gains, final, memoised = run(1)  # a pool of R·n pairs
        bare = run(64 * SEQUENCE_GRAPH.num_nodes * 2)  # a pool of no pairs
        assert (seeds, gains, final) == bare[:3]
        assert memoised.memo_hits > 0 and bare[3].memo_hits == 0
        assert memoised.explores < bare[3].explores

    def test_monotone_and_submodular_exactly(self, medium_graph, medium_probabilities):
        """On fixed worlds the estimate is a coverage function: no
        tolerance.  64 worlds keep count/64 and its differences exact."""
        estimator = MonteCarloSpreadEstimator(
            medium_graph, medium_probabilities, num_samples=64, seed=2
        )
        rng = np.random.default_rng(9)
        for _ in range(25):
            nodes = rng.choice(medium_graph.num_nodes, size=8, replace=False).tolist()
            small, large, extra = nodes[:2], nodes[:7], nodes[7]
            small_gain = estimator.spread(small + [extra]) - estimator.spread(small)
            large_gain = estimator.spread(large + [extra]) - estimator.spread(large)
            assert small_gain >= 0.0 and large_gain >= 0.0
            assert small_gain >= large_gain

    @pytest.mark.parametrize(
        ("seeds", "message"),
        [
            ([], "must not be empty"),
            ([1, 1], "duplicate seed 1"),
            ([0, 4], r"seed must be in \[0, 4\)"),
            ([-1], r"seed must be in \[0, 4\)"),
        ],
    )
    def test_bad_seeds_raise(self, line_graph, seeds, message):
        estimator = MonteCarloSpreadEstimator(
            line_graph, np.full(3, 0.5), num_samples=10, seed=0
        )
        with pytest.raises(ValidationError, match=message):
            estimator.spread(seeds)

    @pytest.mark.parametrize(
        ("probabilities", "message"),
        [
            (np.full(2, 0.5), "must have shape"),
            (np.full((3, 1), 0.5), "must have shape"),
            (np.array([0.5, -0.1, 0.5]), r"must lie in \[0, 1\]"),
            (np.array([0.5, 1.5, 0.5]), r"must lie in \[0, 1\]"),
        ],
    )
    def test_bad_probabilities_raise(self, line_graph, probabilities, message):
        with pytest.raises(ValidationError, match=message):
            MonteCarloSpreadEstimator(line_graph, probabilities, num_samples=10)

    def test_memory_after_greedy_over_every_node_is_independent_of_n(
        self, medium_graph, medium_probabilities
    ):
        """greedy_im evaluates all n singletons; the estimator keeps only
        its fixed R×n marks, allocated at construction, and no memo per
        candidate."""

        def estimator():
            return MonteCarloSpreadEstimator(
                medium_graph, medium_probabilities, num_samples=50, seed=4
            )

        # Warm NumPy's own small-buffer caches outside the measurement.
        greedy_im(medium_graph, medium_probabilities, 3, estimator=estimator())
        estimator = estimator()
        tracemalloc.start()
        try:
            result = greedy_im(
                medium_graph, medium_probabilities, 3, estimator=estimator
            )
            del result
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 4096


class TestCascadeWorlds:
    def test_step_budget_never_changes_what_is_reached(
        self, medium_graph, medium_probabilities
    ):
        """``reach``/``explore`` counts, the reached pairs and the kept
        pairs are the same when every step takes one pair and one edge."""

        def walk():
            worlds = ic.CascadeWorlds(medium_graph, medium_probabilities, 24, 77)
            record = [worlds.explore([0, 5])]
            for sources in ([3], [7, 11], [0], [2]):
                record.append(np.sort(worlds.reach(sources)).tolist())
            worlds.keep(worlds.reach([9]))
            record.append(worlds.marked_pairs().tolist())
            record.append(worlds.explore([4, 6]))
            record.append(worlds.marked_pairs().tolist())
            return record

        default = walk()
        with mock.patch.object(ic, "_STEP_PAIRS", 1), mock.patch.object(
            ic, "_STEP_EDGES", 1
        ):
            tiny = walk()
        assert tiny == default
        assert default[0] > 48  # the cascades are not trivial

    def test_reach_leaves_the_marks_as_they_were(
        self, medium_graph, medium_probabilities
    ):
        worlds = ic.CascadeWorlds(medium_graph, medium_probabilities, 8, 5)
        worlds.explore([1])
        kept = worlds.marked_pairs()
        reached = worlds.reach([2, 3])
        assert np.array_equal(worlds.marked_pairs(), kept)
        assert np.intersect1d(reached, kept).size == 0
        assert worlds.unkept(np.concatenate((kept, reached))).tolist() == (
            reached.tolist()
        )


class TestRRSetEstimator:
    def test_deterministic_repeated_evaluation(
        self, medium_graph, medium_probabilities
    ):
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=500, seed=0
        )
        assert estimator.spread([0, 1]) == estimator.spread([0, 1])

    def test_accepts_existing_collection(self, line_graph):
        collection = RRSetCollection(line_graph, [{0}, {1}])
        estimator = RRSetSpreadEstimator(
            line_graph, np.ones(3), collection=collection
        )
        assert estimator.spread([0]) == pytest.approx(2.0)

    def test_agreement_between_estimators(
        self, medium_graph, medium_probabilities
    ):
        mc = MonteCarloSpreadEstimator(
            medium_graph, medium_probabilities, num_samples=1500, seed=1
        )
        ris = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=6000, seed=2
        )
        seeds = [0, 3, 7]
        assert mc.spread(seeds) == pytest.approx(
            ris.spread(seeds), rel=0.15, abs=1.5
        )

    def test_backend_sampling_deterministic(
        self, medium_graph, medium_probabilities
    ):
        from repro.backend import SerialBackend, ThreadPoolBackend

        serial = RRSetSpreadEstimator(
            medium_graph,
            medium_probabilities,
            num_sets=400,
            seed=5,
            backend=SerialBackend(),
        )
        with ThreadPoolBackend(3) as backend:
            threaded = RRSetSpreadEstimator(
                medium_graph,
                medium_probabilities,
                num_sets=400,
                seed=5,
                backend=backend,
            )
        assert serial.collection.rr_sets == threaded.collection.rr_sets
        assert serial.spread([0, 1]) == threaded.spread([0, 1])

    def test_spread_bounds(self, medium_graph, medium_probabilities):
        """Estimates live in [1, n] for a single valid seed."""
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=800, seed=3
        )
        for node in (0, 5, 11):
            spread = estimator.spread([node])
            assert 0.0 <= spread <= medium_graph.num_nodes

    def test_empty_seed_set_spreads_nothing(
        self, medium_graph, medium_probabilities
    ):
        estimator = RRSetSpreadEstimator(
            medium_graph, medium_probabilities, num_sets=200, seed=4
        )
        assert estimator.spread([]) == 0.0
