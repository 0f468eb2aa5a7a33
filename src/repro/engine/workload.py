"""Mixed query workloads and latency-percentile reporting.

Generates a realistic stream of OCTOPUS queries (keyword IM, keyword
suggestion, path exploration, auto-completion) as typed
:class:`~repro.service.requests.ServiceRequest` objects with a configurable
mix and skew — end users repeat popular queries, which is what makes the
service-layer result cache matter — dispatches it through an
:class:`~repro.service.OctopusService`, and reports per-service latency
percentiles plus the cache/metrics counters the service keeps for free.

Because workloads are request objects, they serialize: ``[r.to_dict() for r
in workload.queries]`` is a replayable JSON query log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.octopus import Octopus
from repro.service.dispatcher import OctopusService
from repro.service.requests import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    ServiceRequest,
    SuggestKeywordsRequest,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_positive

__all__ = ["WorkloadConfig", "QueryWorkload", "LatencyReport", "run_workload"]


@dataclass
class WorkloadConfig:
    """Shape of a generated workload.

    ``mix`` maps service name (``influencers`` / ``suggest`` / ``paths`` /
    ``complete``) to its relative frequency.  ``zipf_s`` controls query
    popularity skew (higher = more repetition, default mild skew); ``k``
    is the seed-set size of influencer queries.
    """

    num_queries: int = 100
    mix: Dict[str, float] = field(
        default_factory=lambda: {
            "influencers": 0.4,
            "suggest": 0.25,
            "paths": 0.25,
            "complete": 0.1,
        }
    )
    zipf_s: float = 1.2
    k: int = 5
    path_threshold: float = 0.02
    seed: SeedLike = None

    def __post_init__(self) -> None:
        check_positive(self.num_queries, "num_queries")
        check_positive(self.k, "k")
        if not self.mix:
            raise ValidationError("mix must not be empty")
        unknown = set(self.mix) - {"influencers", "suggest", "paths", "complete"}
        if unknown:
            raise ValidationError(f"unknown services in mix: {sorted(unknown)}")
        if any(value < 0 for value in self.mix.values()):
            raise ValidationError("mix frequencies must be non-negative")
        if sum(self.mix.values()) <= 0:
            raise ValidationError("mix must have positive total weight")


@dataclass
class QueryWorkload:
    """A concrete query stream of typed service requests."""

    queries: List[ServiceRequest]

    def __len__(self) -> int:
        return len(self.queries)

    def to_dicts(self) -> List[Dict]:
        """The workload as a JSON-serializable query log."""
        return [request.to_dict() for request in self.queries]

    @classmethod
    def generate(
        cls,
        system: Union[Octopus, OctopusService, Any],
        config: Optional[WorkloadConfig] = None,
    ) -> "QueryWorkload":
        """Draw a workload against *system*'s vocabulary and users.

        Keyword pools come from the system's vocabulary, user pools from
        users that actually have recorded keywords (so suggestion queries
        are answerable); both are sampled with Zipf-like skew.
        """
        config = config or WorkloadConfig()
        backend = system if isinstance(system, Octopus) else system.backend
        rng = as_generator(config.seed)
        vocabulary = backend.topic_model.vocabulary
        keywords = vocabulary.words()
        users = sorted(backend.user_keywords)
        if not keywords or not users:
            raise ValidationError("system has no keywords or no active users")

        def zipf_choice(pool: Sequence, size: int) -> List:
            ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
            probabilities = ranks ** (-config.zipf_s)
            probabilities /= probabilities.sum()
            indices = rng.choice(len(pool), size=size, p=probabilities)
            return [pool[int(index)] for index in indices]

        services = list(config.mix)
        weights = np.array([config.mix[s] for s in services], dtype=np.float64)
        weights /= weights.sum()
        drawn_services = rng.choice(
            len(services), size=config.num_queries, p=weights
        )

        keyword_draws = zipf_choice(keywords, config.num_queries)
        user_draws = zipf_choice(users, config.num_queries)
        queries: List[ServiceRequest] = []
        for position, service_index in enumerate(drawn_services):
            service = services[int(service_index)]
            if service == "influencers":
                queries.append(
                    FindInfluencersRequest(
                        keywords=(keyword_draws[position],), k=config.k
                    )
                )
            elif service == "suggest":
                queries.append(
                    SuggestKeywordsRequest(user=int(user_draws[position]), k=3)
                )
            elif service == "paths":
                queries.append(
                    ExplorePathsRequest(
                        user=int(user_draws[position]),
                        threshold=config.path_threshold,
                    )
                )
            else:  # complete
                queries.append(
                    CompleteRequest(
                        prefix=keyword_draws[position][:2], limit=10
                    )
                )
        return cls(queries)


@dataclass
class LatencyReport:
    """Latency percentiles per service, in milliseconds."""

    per_service: Dict[str, Dict[str, float]]
    total_queries: int
    cache_hit_rate: float
    wall_seconds: float
    service_stats: Dict[str, float] = field(default_factory=dict)

    def lines(self) -> List[str]:
        """Human-readable report."""
        rows = [
            f"{'service':<14s}{'count':>7s}{'p50':>9s}{'p95':>9s}"
            f"{'p99':>9s}{'max':>9s}"
        ]
        for service, stats in sorted(self.per_service.items()):
            rows.append(
                f"{service:<14s}{stats['count']:>7.0f}"
                f"{stats['p50_ms']:>9.2f}{stats['p95_ms']:>9.2f}"
                f"{stats['p99_ms']:>9.2f}{stats['max_ms']:>9.2f}"
            )
        rows.append(
            f"total {self.total_queries} queries in "
            f"{self.wall_seconds:.2f}s; cache hit rate "
            f"{100 * self.cache_hit_rate:.0f}%"
        )
        return rows

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable report (for benchmark JSON artifacts)."""
        return {
            "per_service": {
                service: dict(stats)
                for service, stats in self.per_service.items()
            },
            "total_queries": self.total_queries,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_seconds": self.wall_seconds,
            "service_stats": dict(self.service_stats),
        }


def run_workload(
    system: Union[Octopus, OctopusService, Any],
    workload: QueryWorkload,
) -> LatencyReport:
    """Execute *workload* through the service layer and collect percentiles.

    *system* may be an :class:`OctopusService` (preferred — its cache and
    metrics persist across runs, so a second pass over the same workload
    shows the warm-cache speedup), a bare :class:`Octopus`, which is
    wrapped in a fresh service for the duration of the run, or any other
    executor with the service surface (``execute`` and ``metrics``, e.g. a
    :class:`~repro.cluster.ClusterCoordinator`).  Queries run one at a
    time, in order.

    Individual query failures (e.g. a drawn user without enough keywords)
    are counted under ``errors`` rather than aborting the run — a serving
    system keeps going.
    """
    if len(workload) == 0:
        raise ValidationError("workload is empty")
    service = OctopusService(system) if isinstance(system, Octopus) else system
    started = time.perf_counter()
    responses = [service.execute(request) for request in workload.queries]
    wall = time.perf_counter() - started

    latencies: Dict[str, List[float]] = {}
    errors = 0
    cache_hits = 0
    for request, response in zip(workload.queries, responses):
        if not response.ok:
            errors += 1
            continue
        if response.cache_hit:
            cache_hits += 1
        latencies.setdefault(request.service, []).append(response.latency_ms)

    per_service: Dict[str, Dict[str, float]] = {}
    for name, values in latencies.items():
        array = np.asarray(values)
        per_service[name] = {
            "count": float(len(array)),
            "p50_ms": float(np.percentile(array, 50)),
            "p95_ms": float(np.percentile(array, 95)),
            "p99_ms": float(np.percentile(array, 99)),
            "max_ms": float(array.max()),
            "mean_ms": float(array.mean()),
        }
    if errors:
        per_service["errors"] = {
            "count": float(errors),
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
            "mean_ms": 0.0,
        }
    answered = len(workload) - errors
    return LatencyReport(
        per_service=per_service,
        total_queries=len(workload),
        cache_hit_rate=cache_hits / answered if answered else 0.0,
        wall_seconds=wall,
        service_stats=service.metrics.snapshot(),
    )
