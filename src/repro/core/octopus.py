"""The OCTOPUS system facade (Figure 2's architecture, end to end).

Wires the topic-aware influence model to the three online services behind a
keyword-based interface:

* :meth:`Octopus.find_influencers` — keyword-based influence maximization
  (§II-C: topic-sample index; a miss is answered by RIS on the query's own
  γ, the routine the samples are built with, where the paper runs its
  best-effort search);
* :meth:`Octopus.suggest_keywords` — personalized influential keywords
  (§II-D: influencer index + pruned greedy search);
* :meth:`Octopus.explore_paths` — influential path trees (§II-E: MIA).

Plus the UI plumbing of the demo: keyword parsing, auto-completion tries,
radar-diagram data and system statistics.

This facade is a *pure compute backend*: it always computes.  Serving
concerns — result caching, metrics, validation envelopes, batching — live
one layer up in :class:`repro.service.OctopusService`, which is the front
door every client (CLI, workload engine, examples) should use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import ExecutionBackend, resolve_backend
from repro.core.influencer_index import InfluencerIndex
from repro.core.paths import InfluencePathExplorer, PathTree
from repro.core.query import (
    InfluencerResult,
    KeywordQuery,
    KeywordSuggestionResult,
)
from repro.core.suggestion import KeywordSuggester
from repro.core.targeted import CoverStep, TargetedKeywordIM
from repro.core.topic_samples import TopicSampleIndex, ris_seed_prefixes
from repro.graph.digraph import SocialGraph
from repro.im.base import IMResult
from repro.index.inverted import InvertedIndex
from repro.index.trie import Trie
from repro.propagation.native import kernel_provenance
from repro.topics.edges import TopicEdgeWeights
from repro.topics.model import TopicModel
from repro.utils.rng import SeedLike, base_entropy, query_rng, spawn_generators
from repro.utils.timer import Stopwatch
from repro.utils.validation import ValidationError, check_positive

__all__ = ["OctopusConfig", "Octopus"]


@dataclass
class OctopusConfig:
    """Tuning knobs of the online engine (defaults suit ~10³-node graphs)."""

    use_topic_samples: bool = True
    num_topic_samples: int = 16
    topic_sample_max_k: int = 20
    topic_sample_rr_sets: int = 10_000
    gap_tolerance: float = 0.3
    num_sketches: int = 300
    sketch_chunk_size: int = 1_000_000
    suggestion_candidate_limit: int = 30
    consistency_filter: bool = False
    default_k: int = 10
    default_path_threshold: float = 0.01
    cache_capacity: int = 128  # default capacity of the service-layer result cache
    # Pure scheduling: where chunked work runs, never what it computes.
    execution_backend: str = "serial"  # serial | threads | processes
    workers: Optional[int] = None  # worker count for pooled backends
    seed: SeedLike = None

    @property
    def rr_kernel(self) -> str:
        """The RR sampling kernel: there is one (read-only, not a field)."""
        return "counter-keyed"

    def __post_init__(self) -> None:
        if self.execution_backend not in ("serial", "threads", "processes"):
            raise ValidationError(
                "execution_backend must be 'serial', 'threads' or "
                f"'processes', got {self.execution_backend!r}"
            )
        if self.workers is not None:
            check_positive(self.workers, "workers")
        for name in (
            "num_topic_samples",
            "topic_sample_max_k",
            "topic_sample_rr_sets",
            "num_sketches",
            "sketch_chunk_size",
            "suggestion_candidate_limit",
            "default_k",
            "cache_capacity",
        ):
            check_positive(getattr(self, name), name)


class Octopus:
    """The online topic-aware influence analysis system."""

    def __init__(
        self,
        graph: SocialGraph,
        topic_model: TopicModel,
        edge_weights: TopicEdgeWeights,
        user_keywords: Dict[int, List[int]],
        *,
        topic_names: Optional[Sequence[str]] = None,
        config: Optional[OctopusConfig] = None,
    ) -> None:
        if edge_weights.graph is not graph:
            raise ValidationError("edge_weights were built for a different graph")
        if edge_weights.num_topics != topic_model.num_topics:
            raise ValidationError(
                f"edge_weights has {edge_weights.num_topics} topics but the "
                f"topic model has {topic_model.num_topics}"
            )
        self.graph = graph
        self.topic_model = topic_model
        self.edge_weights = edge_weights
        self.user_keywords = user_keywords
        self.config = config or OctopusConfig()
        self.topic_names = (
            list(topic_names)
            if topic_names is not None
            else [f"topic-{z}" for z in range(topic_model.num_topics)]
        )
        if len(self.topic_names) != topic_model.num_topics:
            raise ValidationError(
                f"{len(self.topic_names)} topic names for "
                f"{topic_model.num_topics} topics"
            )
        self._stopwatch = Stopwatch()
        self._build_indexes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset,
        *,
        config: Optional[OctopusConfig] = None,
        learn_model: bool = False,
        em_config=None,
    ) -> "Octopus":
        """Build a system from a :class:`~repro.datasets.SocialDataset`.

        With ``learn_model=True`` the topic model and edge probabilities are
        fitted from the dataset's action logs via EM (the full §II-B
        pipeline); otherwise the dataset's ground truth is used directly.
        """
        if learn_model:
            from repro.topics.em import EMConfig, TICLearner

            em_config = em_config or EMConfig(
                num_topics=dataset.num_topics, seed=0
            )
            learner = TICLearner(dataset.graph, dataset.vocabulary, em_config)
            fitted = learner.fit(dataset.items)
            topic_model = fitted.topic_model
            edge_weights = fitted.edge_weights
        else:
            if dataset.true_topic_model is None or dataset.true_edge_weights is None:
                raise ValidationError(
                    "dataset has no ground-truth model; pass learn_model=True"
                )
            topic_model = dataset.true_topic_model
            edge_weights = dataset.true_edge_weights
        return cls(
            dataset.graph,
            topic_model,
            edge_weights,
            dataset.user_keywords,
            topic_names=dataset.topic_names,
            config=config,
        )

    def _build_indexes(self) -> None:
        config = self.config
        self.execution: ExecutionBackend = resolve_backend(
            config.execution_backend, config.workers
        )
        rngs = spawn_generators(config.seed, 4)
        # A miss's RR batch is keyed by this entropy and the query's edge
        # probabilities (query_rng), so it never depends on earlier queries.
        self._miss_entropy = base_entropy(rngs[0])
        self.topic_sample_index: Optional[TopicSampleIndex] = None
        if config.use_topic_samples:
            with self._stopwatch.phase("build.topic_samples"):
                self.topic_sample_index = TopicSampleIndex(
                    self.edge_weights,
                    num_samples=config.num_topic_samples,
                    max_k=config.topic_sample_max_k,
                    num_rr_sets=config.topic_sample_rr_sets,
                    seed=rngs[1],
                    backend=self.execution,
                )
        with self._stopwatch.phase("build.influencer_index"):
            self.influencer_index = InfluencerIndex(
                self.edge_weights,
                num_sketches=config.num_sketches,
                chunk_size=config.sketch_chunk_size,
                seed=rngs[2],
                backend=self.execution,
            )
        with self._stopwatch.phase("build.suggester"):
            self.suggester = KeywordSuggester(
                self.topic_model,
                self.influencer_index,
                self.user_keywords,
                candidate_limit=config.suggestion_candidate_limit,
                consistency_filter=config.consistency_filter,
            )
        self.path_explorer = InfluencePathExplorer(self.edge_weights)
        with self._stopwatch.phase("build.tries"):
            self.user_trie = Trie()
            if self.graph.labels is not None:
                for node, label in enumerate(self.graph.labels):
                    self.user_trie.insert(
                        label, node, weight=float(self.graph.out_degree(node))
                    )
            self.keyword_trie = Trie()
            counts = self.topic_model.vocabulary.counts()
            for word_id, word in enumerate(self.topic_model.vocabulary.words()):
                self.keyword_trie.insert(word, word_id, weight=float(counts[word_id]))
            self.inverted_index = InvertedIndex()
            for user, words in self.user_keywords.items():
                self.inverted_index.add_document(user, words)

    # ------------------------------------------------------------------
    # Keyword / user resolution
    # ------------------------------------------------------------------

    def parse_keywords(self, keywords: Union[str, Sequence[str]]) -> Tuple[str, ...]:
        """Normalise user input into known vocabulary keywords.

        Accepts a sequence of keywords or a comma-separated string; each
        entry must exist in the vocabulary (multi-word keywords such as
        ``"data mining"`` are single entries).  Unknown keywords raise a
        :class:`ValidationError` carrying auto-completion suggestions.
        """
        if isinstance(keywords, str):
            parts = [part for part in keywords.split(",") if part.strip()]
        else:
            parts = [str(part) for part in keywords]
        if not parts:
            raise ValidationError("no keywords given")
        vocabulary = self.topic_model.vocabulary
        resolved = []
        for part in parts:
            normalized = vocabulary.normalize(part)
            if normalized in vocabulary:
                resolved.append(normalized)
                continue
            suggestions = [key for key, _p in self.keyword_trie.complete(normalized, 3)]
            hint = f"; did you mean {suggestions}?" if suggestions else ""
            raise ValidationError(f"unknown keyword {normalized!r}{hint}")
        return tuple(resolved)

    def resolve_user(self, user: Union[int, str]) -> int:
        """Resolve a user id or (exact) user name to a node id."""
        if isinstance(user, (int, np.integer)) and not isinstance(user, bool):
            node = int(user)
            if not 0 <= node < self.graph.num_nodes:
                raise ValidationError(
                    f"user id must be in [0, {self.graph.num_nodes}), got {node}"
                )
            return node
        if isinstance(user, str):
            try:
                return self.graph.node_by_label(user.strip())
            except ValidationError:
                completions = self.autocomplete_users(user, limit=3)
                hint = (
                    f"; did you mean {[name for name, _n in completions]}?"
                    if completions
                    else ""
                )
                raise ValidationError(f"unknown user {user!r}{hint}") from None
        raise ValidationError(f"user must be an id or a name, got {user!r}")

    def derive_gamma(self, keywords: Union[str, Sequence[str]]) -> np.ndarray:
        """Topic distribution γ captured by the given keywords (§II-B)."""
        resolved = self.parse_keywords(keywords)
        return self.topic_model.keyword_topic_posterior(list(resolved))

    # ------------------------------------------------------------------
    # Service 1: keyword-based influential user discovery
    # ------------------------------------------------------------------

    def find_influencers(
        self,
        keywords: Union[str, Sequence[str]],
        k: Optional[int] = None,
    ) -> InfluencerResult:
        """Seed users with maximum influence spread on the keywords' topic."""
        k = k if k is not None else self.config.default_k
        check_positive(k, "k")
        resolved = self.parse_keywords(keywords)
        started = time.perf_counter()
        gamma = self.topic_model.keyword_topic_posterior(list(resolved))
        query = KeywordQuery(keywords=resolved, gamma=gamma, k=k)
        with self._stopwatch.phase("query.influencers"):
            if (
                self.topic_sample_index is not None
                and k <= self.topic_sample_index.max_k
            ):
                im_result = self.topic_sample_index.query(
                    gamma,
                    k,
                    fallback=self.answer_miss,
                    gap_tolerance=self.config.gap_tolerance,
                )
            else:
                im_result = self.answer_miss(gamma, k)
        labels = [self.graph.label_of(node) for node in im_result.seeds]
        result = InfluencerResult(
            query=query,
            seeds=im_result.seeds,
            spread=im_result.spread,
            labels=labels,
            marginal_gains=im_result.marginal_gains,
            elapsed_seconds=time.perf_counter() - started,
            statistics=dict(im_result.statistics),
        )
        return result

    def answer_miss(self, gamma: np.ndarray, k: int) -> IMResult:
        """RIS on γ itself: the topic samples' routine, keyed per query.

        The batch depends only on (seed, γ), so answers for different *k*
        are nested prefixes and a miss never depends on what ran before.
        A prefix's held-out spread is raised to its seed count when the
        estimate falls below it (small budgets resolve only n / held-out
        nodes): every seed is active in every world, so σ(S) ≥ |S| and the
        raise only removes error.  ``exact_evaluations`` /
        ``candidates_considered`` keep the keys the best-effort search
        reported: no spread-oracle call, every node a candidate.
        """
        probabilities = self.edge_weights.edge_probabilities(gamma)
        num_rr_sets = self.config.topic_sample_rr_sets
        seeds, spreads = ris_seed_prefixes(
            self.execution,
            self.graph,
            probabilities,
            k,
            num_rr_sets,
            query_rng(self._miss_entropy, probabilities),
        )
        spreads = [max(spread, float(size)) for size, spread in enumerate(spreads, 1)]
        return IMResult(
            seeds=seeds,
            spread=spreads[-1],
            marginal_gains=[
                after - before for before, after in zip([0.0] + spreads, spreads)
            ],
            evaluations=0,
            statistics={
                "num_rr_sets": float(num_rr_sets),
                "exact_evaluations": 0.0,
                "candidates_considered": float(self.graph.num_nodes),
            },
        )

    def find_targeted_influencers(
        self,
        keywords: Union[str, Sequence[str]],
        k: Optional[int] = None,
        *,
        audience_keywords: Optional[Union[str, Sequence[str]]] = None,
        num_sets: int = 2000,
        cover: Optional[CoverStep] = None,
    ) -> InfluencerResult:
        """Targeted variant: only the relevant audience counts (ref. [7]).

        The audience defaults to the users who used the query keywords in
        their actions (from the inverted index); *audience_keywords* can
        target a different population than the propagated topic (e.g.
        propagate on "game", count only "console" users).  *cover* replaces
        the engine's sample + greedy-cover step
        (:data:`repro.core.targeted.CoverStep`; default: in-process).
        """
        k = k if k is not None else self.config.default_k
        check_positive(k, "k")
        resolved = self.parse_keywords(keywords)
        audience_resolved = (
            self.parse_keywords(audience_keywords)
            if audience_keywords is not None
            else resolved
        )
        started = time.perf_counter()
        gamma = self.topic_model.keyword_topic_posterior(list(resolved))
        query = KeywordQuery(keywords=resolved, gamma=gamma, k=k)
        engine = TargetedKeywordIM(
            self.edge_weights,
            self.inverted_index,
            num_sets=num_sets,
            seed=self.config.seed,
            backend=self.execution,
            cover=cover,
        )
        word_ids = self.topic_model.vocabulary.ids_of(list(audience_resolved))
        audience = engine.audience_for_keywords(word_ids)
        with self._stopwatch.phase("query.targeted"):
            im_result = engine.query(gamma, k, audience)
        result = InfluencerResult(
            query=query,
            seeds=im_result.seeds,
            spread=im_result.spread,
            labels=[self.graph.label_of(node) for node in im_result.seeds],
            marginal_gains=im_result.marginal_gains,
            elapsed_seconds=time.perf_counter() - started,
            statistics=dict(im_result.statistics),
        )
        return result

    # ------------------------------------------------------------------
    # Service 2: personalized influential keywords suggestion
    # ------------------------------------------------------------------

    def suggest_keywords(
        self,
        user: Union[int, str],
        k: int = 3,
        *,
        method: str = "greedy",
    ) -> KeywordSuggestionResult:
        """The user's most influential k-sized keyword set (§II-D)."""
        node = self.resolve_user(user)
        with self._stopwatch.phase("query.suggestion"):
            return self.suggester.suggest(node, k, method=method)

    # ------------------------------------------------------------------
    # Service 3: influential path exploration
    # ------------------------------------------------------------------

    def explore_paths(
        self,
        user: Union[int, str],
        *,
        keywords: Optional[Union[str, Sequence[str]]] = None,
        threshold: Optional[float] = None,
        direction: str = "influences",
        max_nodes: Optional[int] = None,
    ) -> PathTree:
        """Influential path tree of *user* (§II-E).

        With *keywords* the tree is topic-specific; otherwise it shows
        overall influence (uniform γ).
        """
        node = self.resolve_user(user)
        gamma = self.derive_gamma(keywords) if keywords is not None else None
        threshold = (
            threshold if threshold is not None else self.config.default_path_threshold
        )
        with self._stopwatch.phase("query.paths"):
            return self.path_explorer.explore(
                node,
                gamma=gamma,
                threshold=threshold,
                direction=direction,
                max_nodes=max_nodes,
            )

    # ------------------------------------------------------------------
    # UI plumbing
    # ------------------------------------------------------------------

    def autocomplete_users(self, prefix: str, limit: int = 10) -> List[Tuple[str, int]]:
        """User-name completions as (name, node id)."""
        return self.user_trie.complete(prefix, limit)

    def autocomplete_keywords(
        self, prefix: str, limit: int = 10
    ) -> List[Tuple[str, int]]:
        """Keyword completions as (keyword, word id)."""
        return self.keyword_trie.complete(prefix, limit)

    def radar(self, keywords: Union[str, Sequence[str]]) -> Dict[str, object]:
        """Radar-diagram payload interpreting the keywords over topics."""
        from repro.viz.radar import radar_chart_data

        resolved = self.parse_keywords(keywords)
        return radar_chart_data(self.topic_model, list(resolved), self.topic_names)

    def statistics(self) -> Dict[str, object]:
        """Build/query timings and index sizes (cache stats live in the
        service layer, where the cache now lives).  Values are floats
        except the ``execution.*`` identity keys (backend name and RR-kernel
        provenance), which are strings so snapshots are self-describing."""
        stats: Dict[str, object] = {}
        for name, total in self._stopwatch.totals().items():
            stats[f"seconds.{name}"] = total
        for key, value in self.influencer_index.statistics().items():
            stats[f"influencer_index.{key}"] = value
        if self.topic_sample_index is not None:
            stats["topic_samples.count"] = float(len(self.topic_sample_index))
        # No bound is built any more; the key stays at zero because
        # octobench's frozen probe_snapshot_and_build reads it and would
        # null its whole probe group (snapshot.bytes, build.*) without it.
        stats["seconds.build.bounds"] = 0.0
        stats["execution.backend"] = self.execution.name
        stats["execution.workers"] = float(self.execution.workers)
        # Which path the RR kernel and the greedy cover update run on:
        # "compiled" or "numpy".  Pure observability — never an answer
        # change — but essential for reading benchmark numbers.
        stats["execution.rr_kernel"] = kernel_provenance()
        stats["graph.num_nodes"] = float(self.graph.num_nodes)
        stats["graph.num_edges"] = float(self.graph.num_edges)
        return stats

    def close(self) -> None:
        """Release the execution backend's worker pool, if any."""
        self.execution.close()

    def __enter__(self) -> "Octopus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
