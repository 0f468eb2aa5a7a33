"""Property-based tests on influence-spread invariants.

These run on small random graphs where the invariants (monotonicity,
bounds soundness, estimator agreement) can be checked against brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.mia import MIAModel
from reference.worlds import WorldEnsemble
from repro.core.bounds import PrecomputationBound, walk_sum_bounds
from repro.graph.digraph import SocialGraph
from repro.topics.edges import TopicEdgeWeights


@st.composite
def weighted_graphs(draw, max_nodes=7):
    num_nodes = draw(st.integers(2, max_nodes))
    possible = [
        (u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v
    ]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=12)
    )
    probabilities = draw(
        st.lists(
            st.floats(0.0, 1.0),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    graph = SocialGraph.from_edges(num_nodes, edges)
    # Edge order in CSR differs from input order; rebuild by edge id.
    prob_map = {}
    for (u, v), p in zip(edges, probabilities):
        prob_map[(u, v)] = p
    ordered = np.array(
        [prob_map[(u, v)] for _e, u, v in graph.edges()], dtype=np.float64
    )
    return graph, ordered


def exact_spread(graph: SocialGraph, probabilities: np.ndarray, seeds) -> float:
    """Brute-force expected spread by enumerating all live-edge worlds."""
    m = graph.num_edges
    edges = list(graph.edges())
    total = 0.0
    for mask in range(2**m):
        world_probability = 1.0
        adjacency = {}
        for bit, (edge_id, u, v) in enumerate(edges):
            p = probabilities[edge_id]
            if mask >> bit & 1:
                world_probability *= p
                adjacency.setdefault(u, []).append(v)
            else:
                world_probability *= 1.0 - p
        if world_probability == 0.0:
            continue
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            node = stack.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    stack.append(neighbor)
        total += world_probability * len(reached)
    return total


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_walk_sum_upper_bounds_exact_spread(case):
    graph, probabilities = case
    bounds = walk_sum_bounds(graph, probabilities)
    for node in range(graph.num_nodes):
        truth = exact_spread(graph, probabilities, [node])
        assert bounds[node] >= truth - 1e-9


@given(
    weighted_graphs(),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_precomputation_bound_upper_bounds_exact_spread(case, num_topics, seed):
    """The served bound holds for every node under any topic mixture γ."""
    graph, _probabilities = case
    rng = np.random.default_rng(seed)
    topic_weights = rng.random((graph.num_edges, num_topics))
    gamma = rng.dirichlet(np.ones(num_topics))
    weights = TopicEdgeWeights(graph, topic_weights)
    bounds = PrecomputationBound(weights).bounds(gamma)
    probabilities = weights.edge_probabilities(gamma)
    for node in range(graph.num_nodes):
        truth = exact_spread(graph, probabilities, [node])
        assert bounds[node] >= truth - 1e-9


@given(weighted_graphs())
@settings(max_examples=30, deadline=None)
def test_world_ensemble_estimator_is_consistent(case):
    graph, probabilities = case
    truth = exact_spread(graph, probabilities, [0])
    ensemble = WorldEnsemble(graph, 3000, seed=0)
    estimate = ensemble.estimate_spread([0], probabilities)
    # 3000 worlds on ≤7 nodes: generous 3-sigma-ish tolerance.
    assert estimate == pytest.approx(truth, abs=0.35)


@given(weighted_graphs())
@settings(max_examples=30, deadline=None)
def test_exact_spread_monotone_in_seeds(case):
    graph, probabilities = case
    single = exact_spread(graph, probabilities, [0])
    double = exact_spread(graph, probabilities, [0, graph.num_nodes - 1])
    assert double >= single - 1e-12


@given(weighted_graphs())
@settings(max_examples=30, deadline=None)
def test_exact_spread_submodular_in_seeds(case):
    """σ(S∪{x}) − σ(S) ≥ σ(T∪{x}) − σ(T) for S ⊆ T (IC is submodular)."""
    graph, probabilities = case
    if graph.num_nodes < 3:
        return
    x = graph.num_nodes - 1
    small = [0]
    large = [0, 1]
    if x in large:
        return
    gain_small = exact_spread(graph, probabilities, small + [x]) - exact_spread(
        graph, probabilities, small
    )
    gain_large = exact_spread(graph, probabilities, large + [x]) - exact_spread(
        graph, probabilities, large
    )
    assert gain_small >= gain_large - 1e-9


@given(weighted_graphs())
@settings(max_examples=30, deadline=None)
def test_mia_spread_never_exceeds_node_count(case):
    graph, probabilities = case
    model = MIAModel(graph, probabilities, threshold=0.0)
    spread = model.spread([0])
    assert 1.0 - 1e-9 <= spread <= graph.num_nodes + 1e-9
