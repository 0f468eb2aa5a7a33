"""The OCTOPUS service dispatcher — the system's single front door.

:class:`OctopusService` routes typed requests (or their dict/JSON wire
forms) to the :class:`~repro.core.octopus.Octopus` compute backend through a
composable middleware stack, and always returns a
:class:`~repro.service.responses.ServiceResponse` — malformed input, unknown
services, backend validation failures and unexpected exceptions all become
structured error envelopes, never tracebacks.  :meth:`execute_batch` groups
same-service requests and shares results between duplicates so skewed
interactive workloads amortize index lookups.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.octopus import Octopus
from repro.core.query import InfluencerResult
from repro.core.targeted import CoverStep
from repro.index.cache import LRUCache
from repro.obs.trace import stage, stamp_response
from repro.service.middleware import (
    CacheMiddleware,
    Handler,
    MetricsMiddleware,
    Middleware,
    RateLimitMiddleware,
    ServiceMetrics,
    ValidationMiddleware,
)
from repro.service.requests import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    RadarRequest,
    ServiceRequest,
    StatsRequest,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    request_from_dict,
    request_from_json,
)
from repro.service.responses import ServiceResponse, jsonify
from repro.utils.validation import ValidationError

__all__ = ["OctopusService"]

RequestLike = Union[ServiceRequest, Dict[str, Any], str]


class OctopusService:
    """Typed request/response service over an :class:`Octopus` backend.

    The default middleware stack, outermost first:

    1. metrics — latency/error/hit counters per service;
    2. rate limiting — only when ``rate_limit`` is given;
    3. validation — structural request checks;
    4. user middleware — anything passed via ``middleware``;
    5. result cache — LRU over successful cacheable responses.

    The result cache lives *here*, not in the backend: every entry point
    (CLI, workload engine, future wire servers) shares one cache with one
    set of counters.

    The stack ends in :meth:`handle`, which computes on the local backend.
    The multi-process executors plug in *behind* the stack instead of
    re-implementing it: :meth:`over` returns this same service — same
    middleware objects, cache and metrics — ending in their handler
    (compute on a forked replica, route to or fan out over shards), and
    the forked replicas run :meth:`handle` alone.
    """

    def __init__(
        self,
        backend: Octopus,
        *,
        cache_capacity: Optional[int] = None,
        rate_limit: Optional[float] = None,
        middleware: Sequence[Middleware] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.backend = backend
        self.metrics = ServiceMetrics()
        self.cache = LRUCache(
            cache_capacity
            if cache_capacity is not None
            else backend.config.cache_capacity
        )
        stack: List[Middleware] = [MetricsMiddleware(self.metrics)]
        if rate_limit is not None:
            stack.append(RateLimitMiddleware(rate_limit, clock=clock))
        stack.append(ValidationMiddleware())
        stack.extend(middleware)
        stack.append(CacheMiddleware(self.cache))
        self.middleware: Tuple[Middleware, ...] = tuple(stack)
        self._handlers: Dict[str, Callable[[ServiceRequest], Dict[str, Any]]] = {
            FindInfluencersRequest.service: self._handle_influencers,
            TargetedInfluencersRequest.service: self._handle_targeted,
            SuggestKeywordsRequest.service: self._handle_suggest,
            ExplorePathsRequest.service: self._handle_paths,
            CompleteRequest.service: self._handle_complete,
            RadarRequest.service: self._handle_radar,
            StatsRequest.service: self._handle_stats,
        }
        # The stack is immutable after construction: compose it once
        # instead of allocating wrapper closures on every request.
        self._entry = self._compose(self.handle)

    def over(self, terminal: Handler) -> "OctopusService":
        """This service with its stack ending in *terminal*.

        The copy shares every middleware object, the cache and the metrics
        with the original, so a rate limit, a user middleware or a cached
        answer applies once, in the serving process, whichever handler
        does the computing.
        """
        front = copy.copy(self)
        front._entry = front._compose(terminal)
        return front

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, request: RequestLike) -> ServiceResponse:
        """Serve one request; never raises.

        Accepts a typed :class:`ServiceRequest`, its dict form, or a JSON
        string — the three shapes a log replayer or wire server deals in.
        When a request trace is active on the calling context, the
        response (error envelopes included) is stamped with its id and,
        in debug mode, the stage-timing breakdown.
        """
        try:
            typed = self._coerce(request)
        except ValidationError as error:
            return stamp_response(
                ServiceResponse.failure(
                    self._service_name_of(request),
                    "malformed_request",
                    str(error),
                )
            )
        return stamp_response(self._run_stack(typed))

    def execute_batch(
        self, requests: Sequence[RequestLike]
    ) -> List[ServiceResponse]:
        """Serve many requests, amortizing work across the batch.

        Requests are grouped by service and de-duplicated by cache key:
        each distinct query is computed once and its response shared with
        every duplicate (marked ``cache_hit=True``), which is where skewed
        workloads win.  Responses come back in input order, and a bad
        request only fails its own slot.
        """
        responses: List[Optional[ServiceResponse]] = [None] * len(requests)
        groups: Dict[str, List[Tuple[int, ServiceRequest]]] = {}
        for position, raw in enumerate(requests):
            try:
                typed = self._coerce(raw)
            except ValidationError as error:
                responses[position] = ServiceResponse.failure(
                    self._service_name_of(raw), "malformed_request", str(error)
                )
                continue
            groups.setdefault(typed.service, []).append((position, typed))
        for _service, members in groups.items():
            shared: Dict[Any, ServiceResponse] = {}
            for position, typed in members:
                key = typed.cache_key()
                try:
                    original = shared.get(key) if key is not None else None
                except TypeError:
                    # unhashable field value: structural validation will
                    # reject it inside the stack; just don't de-duplicate
                    key, original = None, None
                if original is not None:
                    responses[position] = self.share(original)
                    continue
                response = self._run_stack(typed)
                responses[position] = response
                if key is not None and response.ok:
                    shared[key] = response
        assert all(response is not None for response in responses)
        return [
            stamp_response(response)  # type: ignore[arg-type]
            for response in responses
        ]

    def share(self, original: ServiceResponse) -> ServiceResponse:
        """*original* as answered to a duplicate request that never ran the
        stack (a batch duplicate): timed and counted as a cache hit."""
        started = time.perf_counter()
        return self.metrics.timed(original.as_cache_hit(), started)

    def refuse(self, request: RequestLike) -> ServiceResponse:
        """What a closed executor answers: one ``internal_error`` envelope,
        with nothing looked up, computed or counted."""
        return stamp_response(
            ServiceResponse.failure(
                self._service_name_of(request),
                "internal_error",
                "executor is closed",
            )
        )

    def stats(self) -> Dict[str, Any]:
        """Merged serving + backend statistics.

        Service-level metrics (``service.*``), result-cache counters
        (``cache.*``), the backend's build/index statistics, and the
        executor identity (``executor.kind`` / ``executor.workers``) in one
        flat dict — values are floats except the identity strings, so
        bench output and ops snapshots are self-describing.
        """
        stats: Dict[str, Any] = {}
        stats.update(self.metrics.snapshot())
        for key, value in self.cache.stats().items():
            stats[f"cache.{key}"] = float(value)
        stats.update(self.backend.statistics())
        stats["executor.kind"] = "serial"
        stats["executor.workers"] = 1.0
        return stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _service_name_of(request: RequestLike) -> str:
        """Best-effort service name for error envelopes on unparsable input."""
        if isinstance(request, ServiceRequest):
            return request.service
        if isinstance(request, dict):
            service = request.get("service")
            if isinstance(service, str) and service:
                return service
        return "unknown"

    @staticmethod
    def _coerce(request: RequestLike) -> ServiceRequest:
        """Normalise dict/JSON input to a typed request."""
        if isinstance(request, ServiceRequest):
            return request
        if isinstance(request, dict):
            return request_from_dict(request)
        if isinstance(request, str):
            return request_from_json(request)
        raise ValidationError(
            f"request must be a ServiceRequest, dict or JSON string, "
            f"got {type(request).__name__}"
        )

    def _run_stack(self, request: ServiceRequest) -> ServiceResponse:
        """Run the request through the pre-composed middleware chain."""
        return self._entry(request)

    def _compose(self, terminal: Handler) -> Handler:
        """The middleware chain, outermost first, ending in *terminal*."""
        entry = terminal
        for layer in reversed(self.middleware):
            entry = self._wrap(layer, entry)
        return entry

    @staticmethod
    def _wrap(layer: Middleware, inner: Handler) -> Handler:
        """One composition step (named function to keep closures distinct)."""

        def wrapped(request: ServiceRequest) -> ServiceResponse:
            return layer(request, inner)

        return wrapped

    def handle(
        self, request: ServiceRequest, **options: Any
    ) -> ServiceResponse:
        """Innermost handler: dispatch to the backend, envelope the outcome.

        No middleware runs here — this is what a forked replica executes
        for a request its parent's stack already admitted.  *options* go
        to the per-service handler (the cluster coordinator passes
        ``cover=`` to the targeted one).
        """
        handler = self._handlers.get(request.service)
        if handler is None:
            return ServiceResponse.failure(
                request.service,
                "unknown_service",
                f"no handler for service {request.service!r}",
            )
        try:
            with stage("backend"):
                payload = handler(request, **options)
        except ValidationError as error:
            return ServiceResponse.failure(
                request.service, "invalid_request", str(error)
            )
        except Exception as error:  # noqa: BLE001 — the envelope IS the contract
            return ServiceResponse.failure(
                request.service,
                "internal_error",
                f"{type(error).__name__}: {error}",
            )
        with stage("assemble"):
            return ServiceResponse.success(request.service, payload)

    # -- per-service handlers -------------------------------------------

    def _handle_influencers(self, request: FindInfluencersRequest) -> Dict:
        """Keyword IM via the backend."""
        return self._influencer_payload(
            self.backend.find_influencers(request.keywords, k=request.k)
        )

    def _handle_targeted(
        self,
        request: TargetedInfluencersRequest,
        cover: Optional[CoverStep] = None,
    ) -> Dict:
        """Targeted keyword IM (relevant-audience variant) via the backend."""
        return self._influencer_payload(
            self.backend.find_targeted_influencers(
                request.keywords,
                k=request.k,
                audience_keywords=request.audience_keywords,
                num_sets=request.num_sets,
                cover=cover,
            )
        )

    @staticmethod
    def _influencer_payload(result: InfluencerResult) -> Dict:
        """The wire payload of both IM services; mirrors InfluencerResult."""
        return {
            "keywords": list(result.query.keywords),
            "k": result.query.k,
            "gamma": jsonify(result.query.gamma),
            "seeds": list(result.seeds),
            "labels": list(result.labels),
            "spread": float(result.spread),
            "marginal_gains": list(result.marginal_gains),
            "elapsed_seconds": float(result.elapsed_seconds),
            "statistics": jsonify(result.statistics),
        }

    def _handle_suggest(self, request: SuggestKeywordsRequest) -> Dict:
        """Keyword suggestion via the backend."""
        result = self.backend.suggest_keywords(
            request.user, k=request.k, method=request.method
        )
        return {
            "target": int(result.target),
            "target_label": result.target_label,
            "keywords": list(result.keywords),
            "spread": float(result.spread),
            "gamma": jsonify(result.gamma),
            "per_keyword_spread": jsonify(result.per_keyword_spread),
            "elapsed_seconds": float(result.elapsed_seconds),
            "statistics": jsonify(result.statistics),
        }

    def _handle_paths(self, request: ExplorePathsRequest) -> Dict:
        """Path exploration via the backend; payload is PathTree.to_dict()."""
        tree = self.backend.explore_paths(
            request.user,
            keywords=request.keywords,
            threshold=request.threshold,
            direction=request.direction,
            max_nodes=request.max_nodes,
        )
        return tree.to_dict()

    def _handle_complete(self, request: CompleteRequest) -> Dict:
        """Auto-completion over the requested trie."""
        if request.kind == "users":
            completions = self.backend.autocomplete_users(
                request.prefix, request.limit
            )
        else:
            completions = self.backend.autocomplete_keywords(
                request.prefix, request.limit
            )
        return {
            "prefix": request.prefix,
            "kind": request.kind,
            "completions": [[key, int(value)] for key, value in completions],
        }

    def _handle_radar(self, request: RadarRequest) -> Dict:
        """Radar-diagram topic interpretation."""
        return dict(self.backend.radar(request.keywords))

    def _handle_stats(self, request: StatsRequest) -> Dict:
        """Live service + backend statistics snapshot."""
        return self.stats()
