"""The influencer index behind personalized keyword suggestion (§II-D).

"To achieve real-time influence spread computation, we introduce a novel
index structure that maintains 'influencers' of uniformly sampled users to
avoid online sampling from scratch.  We also devise effective pruning and
delay materialization techniques for fast influence computation."

Structure.  The index samples *poll roots* uniformly and builds, per root, a
**sketch**: the reverse-reachable subgraph over *potentially live* edges.
Each examined edge draws a fixed uniform threshold ``θ_e``; under a query
topic distribution γ the edge is live iff ``θ_e ≤ pp_e(γ)``, so reachability
in a sketch distributes exactly like an IC reverse-reachable set while the
shared thresholds couple all queries (the lazy-propagation sampling of [6]).

* **Lazy propagation / permanent pruning** — an edge whose threshold exceeds
  the topic envelope ``max_z pp^z_e`` can never be live for any γ and is
  dropped at build time; only query-dependent edges are materialised.
* **Delayed materialization** — sketches grow up to ``chunk_size`` nodes at
  build time and keep their unexplored frontier plus a private RNG stream.
  The first query completes every truncated sketch in one pass under the
  index lock, then indexes their members; a build that already completes
  every sketch (the default ``chunk_size``) skips the pass.  Each sketch
  owns its stream, so expansion order changes nothing.
* **Membership pruning** — the node→sketches inverted map is the only way
  a query finds its sketches: a target-user query touches exactly the
  sketches that contain the user (a user in none costs one dict lookup),
  and a seed-set query the union of its seeds' postings.  On complete
  sketches ``user ∈ sketch.nodes`` ⇔ ``index ∈ postings[user]``, so this
  is the full scan's answer, count for count.

Estimator.  ``σ̂_γ(S) = (n / R) · #{sketches whose root is reached from S
via live edges}`` — the standard unbiased RIS estimator, here evaluated by a
vectorised liveness test (one mat-vec per sketch) plus a reverse BFS.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backend import ExecutionBackend, resolve_backend
from repro.graph.digraph import SocialGraph
from repro.propagation.kernels import gather_csr_slices
from repro.topics.edges import TopicEdgeWeights
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import (
    ValidationError,
    check_node_id,
    check_positive,
    check_simplex,
)

__all__ = ["Sketch", "InfluencerIndex"]


@dataclass
class Sketch:
    """Reverse potential-world sketch rooted at ``root``.

    ``edge_sources``/``edge_targets``/``edge_thresholds`` describe the
    materialised potentially-live edges (each target is already in the
    sketch); ``frontier`` holds nodes whose in-edges have not been examined
    yet (delayed materialization).
    """

    root: int
    nodes: Set[int]
    edge_sources: List[int] = field(default_factory=list)
    edge_targets: List[int] = field(default_factory=list)
    edge_ids: List[int] = field(default_factory=list)
    edge_thresholds: List[float] = field(default_factory=list)
    frontier: List[int] = field(default_factory=list)
    edges_pruned: int = 0

    @property
    def complete(self) -> bool:
        """Whether every reachable in-edge has been examined."""
        return not self.frontier

    @property
    def num_edges(self) -> int:
        """Materialised (potentially live) edge count."""
        return len(self.edge_sources)


def _expand_sketch(
    graph: SocialGraph,
    envelope: np.ndarray,
    sketch: Sketch,
    rng: np.random.Generator,
    budget: int,
) -> None:
    """Examine in-edges of up to *budget* frontier nodes of *sketch*.

    The sketch-construction core, free of index state: each sketch is a
    pure function of ``(graph, envelope, root, rng stream)``, which is what
    lets builds be partitioned across workers without changing the result.

    Frontier-batched: the frontier is consumed as a FIFO queue; each
    iteration takes the longest budget-permitted prefix, gathers every
    taken node's in-CSR slice with one fancy-indexing pass and draws
    **one** threshold array for the whole batch instead of one
    ``rng.random`` call per node.

    Determinism: the queue order is a pure function of the sketch state, a
    batch's thresholds are assigned in (queue order × CSR edge order), and
    ``Generator.random`` concatenates — ``random(a)`` then ``random(b)``
    equals ``random(a + b)`` split — so results are independent of where
    budget boundaries fall (chunked builds and delayed materialization
    replay the eager build exactly; the seed-stability suite proves it).
    """
    processed = 0
    while sketch.frontier and processed < budget:
        take = min(budget - processed, len(sketch.frontier))
        batch = sketch.frontier[:take]
        del sketch.frontier[:take]
        processed += take
        batch_array = np.asarray(batch, dtype=np.int64)
        starts = graph.in_offsets[batch_array]
        stops = graph.in_offsets[batch_array + 1]
        degrees = stops - starts
        total = int(degrees.sum())
        if total == 0:
            continue
        thresholds = rng.random(total)
        positions = gather_csr_slices(starts, stops)
        edge_ids = graph.in_edge_ids[positions]
        live = thresholds <= envelope[edge_ids]
        live_count = int(np.count_nonzero(live))
        sketch.edges_pruned += total - live_count
        if live_count == 0:
            continue
        live_sources = graph.in_sources[positions][live].tolist()
        sketch.edge_sources.extend(live_sources)
        sketch.edge_targets.extend(
            np.repeat(batch_array, degrees)[live].tolist()
        )
        sketch.edge_ids.extend(edge_ids[live].tolist())
        sketch.edge_thresholds.extend(thresholds[live].tolist())
        for source in live_sources:
            if source not in sketch.nodes:
                sketch.nodes.add(source)
                sketch.frontier.append(source)


def _build_sketch_chunk(task) -> Tuple[List[Sketch], List[np.random.Generator]]:
    """Backend chunk worker: build a slice of sketches from their streams.

    Returns the sketches *and* the advanced generators — across a process
    boundary the parent must adopt the returned RNG state so later delayed
    materialization continues each stream exactly where the build left it.
    """
    graph, envelope, roots, rngs, budget = task
    sketches: List[Sketch] = []
    for root, rng in zip(roots, rngs):
        sketch = Sketch(root=int(root), nodes={int(root)}, frontier=[int(root)])
        _expand_sketch(graph, envelope, sketch, rng, budget)
        sketches.append(sketch)
    return sketches, list(rngs)


class InfluencerIndex:
    """Sampled reverse sketches supporting real-time spread estimation."""

    def __init__(
        self,
        edge_weights: TopicEdgeWeights,
        num_sketches: int = 500,
        *,
        chunk_size: int = 100_000,
        seed: SeedLike = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        check_positive(num_sketches, "num_sketches")
        check_positive(chunk_size, "chunk_size")
        self.edge_weights = edge_weights
        self.graph = edge_weights.graph
        if self.graph.num_nodes == 0:
            raise ValidationError("cannot index an empty graph")
        self.num_sketches = num_sketches
        self.chunk_size = chunk_size
        self._envelope = edge_weights.max_over_topics()
        # Queries mutate the index (delayed materialization, per-sketch
        # weight cache); the lock makes concurrent query threads safe.
        self._lock = threading.RLock()
        generators = spawn_generators(seed, num_sketches + 1)
        root_rng, self._sketch_rngs = generators[0], generators[1:]
        roots = root_rng.integers(0, self.graph.num_nodes, size=num_sketches)
        self.sketches: List[Sketch] = []
        self._membership: Dict[int, List[int]] = {}
        self._weight_cache: Dict[int, np.ndarray] = {}
        # Each sketch owns a pre-spawned stream, so partitioning the build
        # changes nothing: any backend, any worker count, any chunking
        # produces the same sketches.
        backend = resolve_backend(backend)
        span = max(1, -(-num_sketches // (backend.workers * 4)))
        tasks = [
            (
                self.graph,
                self._envelope,
                [int(root) for root in roots[start : start + span]],
                self._sketch_rngs[start : start + span],
                chunk_size,
            )
            for start in range(0, num_sketches, span)
        ]
        position = 0
        for sketches, rngs in backend.map_chunks(_build_sketch_chunk, tasks):
            self.sketches.extend(sketches)
            # Adopt the advanced RNG state (identity for in-memory
            # backends, a pickled round-trip for process pools).
            for rng in rngs:
                self._sketch_rngs[position] = rng
                position += 1
        # Postings are read only once every sketch is complete (see
        # _postings); a build that completes them all indexes them now.
        self._materialized = False
        if all(sketch.complete for sketch in self.sketches):
            self._index_members()

    # ------------------------------------------------------------------
    # Construction / delayed materialization
    # ------------------------------------------------------------------

    def _expand(self, sketch_index: int, sketch: Sketch, budget: int) -> None:
        """Examine in-edges of up to *budget* frontier nodes."""
        _expand_sketch(
            self.graph,
            self._envelope,
            sketch,
            self._sketch_rngs[sketch_index],
            budget,
        )
        # Materialised arrays changed; invalidate the per-sketch cache.
        self._weight_cache.pop(sketch_index, None)

    def _materialize(self, sketch_index: int) -> Sketch:
        """Fully expand one sketch (delayed materialization).

        A query evaluated on a truncated sketch would be biased: unexamined
        in-edges of frontier nodes can carry live paths, and a node's
        absence is only proven once the frontier is exhausted.  Expansion
        is deterministic (per-sketch RNG stream) and happens at most once
        per sketch.  It does not touch the postings: :meth:`_postings`
        indexes members after every sketch is complete.
        """
        sketch = self.sketches[sketch_index]
        with self._lock:
            while not sketch.complete:
                self._expand(sketch_index, sketch, budget=self.chunk_size)
        return sketch

    def _index_members(self) -> None:
        """Build the node→sketches postings from complete sketches."""
        membership: Dict[int, List[int]] = {}
        for index, sketch in enumerate(self.sketches):
            for node in sketch.nodes:
                membership.setdefault(node, []).append(index)
        self._membership = membership
        self._materialized = True

    def _postings(self) -> Dict[int, List[int]]:
        """The node→sketches map over fully materialised sketches.

        The first call on a lazily built index completes every truncated
        sketch and then indexes all members, in one pass under the index
        lock; the done-flag is read under the same lock, so no thread sees
        postings before every list is final.  After that the map is never
        written again.
        """
        with self._lock:
            if not self._materialized:
                for sketch_index in range(self.num_sketches):
                    self._materialize(sketch_index)
                self._index_members()
            return self._membership

    def _sketch_weights(self, sketch_index: int) -> np.ndarray:
        """Topic-weight rows of a sketch's edges, cached per sketch."""
        with self._lock:
            if sketch_index not in self._weight_cache:
                sketch = self.sketches[sketch_index]
                rows = np.asarray(sketch.edge_ids, dtype=np.int64)
                self._weight_cache[sketch_index] = self.edge_weights.weights[rows]
            return self._weight_cache[sketch_index]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def sketches_containing(self, node: int) -> List[int]:
        """Indices, ascending, of the sketches containing *node*."""
        check_node_id(node, self.graph.num_nodes, "node")
        return list(self._postings().get(node, ()))

    def _live_reachable(
        self, sketch_index: int, gamma: np.ndarray
    ) -> Set[int]:
        """Nodes reaching the sketch root via γ-live edges."""
        sketch = self.sketches[sketch_index]
        if sketch.num_edges == 0:
            return {sketch.root}
        weights = self._sketch_weights(sketch_index)
        live = (weights @ gamma) >= np.asarray(sketch.edge_thresholds)
        incoming: Dict[int, List[int]] = {}
        for position in np.flatnonzero(live):
            incoming.setdefault(sketch.edge_targets[position], []).append(
                sketch.edge_sources[position]
            )
        reached = {sketch.root}
        stack = [sketch.root]
        while stack:
            node = stack.pop()
            for source in incoming.get(node, ()):
                if source not in reached:
                    reached.add(source)
                    stack.append(source)
        return reached

    def estimate_user_spread(self, user: int, gamma: np.ndarray) -> float:
        """σ̂_γ({user}): real-time single-user spread estimate."""
        check_node_id(user, self.graph.num_nodes, "user")
        gamma = self._check_gamma(gamma)
        hits = 0
        # Membership pruning: only a sketch containing the user can have
        # its root reached from the user.
        for sketch_index in self._postings().get(user, ()):
            if user in self._live_reachable(sketch_index, gamma):
                hits += 1
        return self.graph.num_nodes * hits / self.num_sketches

    def estimate_user_spread_many(
        self, user: int, gammas: np.ndarray
    ) -> np.ndarray:
        """Spread of *user* under many candidate distributions at once.

        The workhorse of keyword suggestion: evaluates all candidate keyword
        sets' γ's against each relevant sketch with a single liveness
        mat-mat product per sketch.
        """
        check_node_id(user, self.graph.num_nodes, "user")
        gammas = np.atleast_2d(np.asarray(gammas, dtype=np.float64))
        if gammas.shape[1] != self.edge_weights.num_topics:
            raise ValidationError(
                f"gammas must have {self.edge_weights.num_topics} columns, "
                f"got {gammas.shape[1]}"
            )
        hits = np.zeros(gammas.shape[0], dtype=np.int64)
        for sketch_index in self._postings().get(user, ()):
            sketch = self.sketches[sketch_index]
            if sketch.num_edges == 0:
                if user == sketch.root:
                    hits += 1
                continue
            weights = self._sketch_weights(sketch_index)
            thresholds = np.asarray(sketch.edge_thresholds)
            live_matrix = (weights @ gammas.T) >= thresholds[:, None]
            for query_index in range(gammas.shape[0]):
                if self._reaches_root(sketch, live_matrix[:, query_index], user):
                    hits[query_index] += 1
        return self.graph.num_nodes * hits / self.num_sketches

    def _reaches_root(
        self, sketch: Sketch, live: np.ndarray, user: int
    ) -> bool:
        if user == sketch.root:
            return True
        incoming: Dict[int, List[int]] = {}
        for position in np.flatnonzero(live):
            incoming.setdefault(sketch.edge_targets[position], []).append(
                sketch.edge_sources[position]
            )
        stack = [sketch.root]
        reached = {sketch.root}
        while stack:
            node = stack.pop()
            for source in incoming.get(node, ()):
                if source == user:
                    return True
                if source not in reached:
                    reached.add(source)
                    stack.append(source)
        return False

    def estimate_seed_set_spread(
        self, seeds: Sequence[int], gamma: np.ndarray
    ) -> float:
        """σ̂_γ(S) for a seed set (used by tests against RIS baselines)."""
        gamma = self._check_gamma(gamma)
        seed_set = set(int(s) for s in seeds)
        for node in seed_set:
            check_node_id(node, self.graph.num_nodes, "seed")
        if not seed_set:
            return 0.0
        postings = self._postings()
        touched: Set[int] = set()
        for node in seed_set:
            touched.update(postings.get(node, ()))
        hits = sum(
            1
            for sketch_index in touched
            if not seed_set.isdisjoint(self._live_reachable(sketch_index, gamma))
        )
        return self.graph.num_nodes * hits / self.num_sketches

    def _check_gamma(self, gamma: np.ndarray) -> np.ndarray:
        gamma = check_simplex(gamma, "gamma")
        if gamma.size != self.edge_weights.num_topics:
            raise ValidationError(
                f"gamma has {gamma.size} entries for "
                f"{self.edge_weights.num_topics} topics"
            )
        return gamma

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Index-size and pruning statistics (benchmark E5 reports these)."""
        total_edges = sum(sketch.num_edges for sketch in self.sketches)
        total_pruned = sum(sketch.edges_pruned for sketch in self.sketches)
        total_nodes = sum(len(sketch.nodes) for sketch in self.sketches)
        complete = sum(1 for sketch in self.sketches if sketch.complete)
        return {
            "num_sketches": float(self.num_sketches),
            "total_edges": float(total_edges),
            "total_nodes": float(total_nodes),
            "edges_pruned_permanently": float(total_pruned),
            "complete_sketches": float(complete),
        }
