"""The traced run: per-layer numbers measured from outside the program.

The benchmark assembles client → front end → ``OctopusService`` (or
``ClusterCoordinator``) → ``Octopus`` in this process, wraps each boundary in a
benchmark-side span, replays the head of the workload's request list with one
client, and computes each layer's self time as its span minus its children.
Below the facade it times direct calls to the lower layers' public functions.
End-to-end metrics never come from here.

Only names re-exported from ``repro``, ``repro.service``, ``repro.server``,
``repro.cluster``, ``repro.snapshot``, ``repro.propagation`` and ``repro.im``
are imported.  A probe whose import or call fails records ``null`` for its
metrics plus the reason, and never stops the others.
"""

from __future__ import annotations

import glob
import http.client
import itertools
import json
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from octobench import loadgen, reqgen, spec, sut

FACADE_METHODS = (
    "find_influencers", "find_targeted_influencers", "suggest_keywords",
    "explore_paths", "autocomplete_users", "autocomplete_keywords", "radar",
    "statistics",
)


@dataclass
class Span:
    name: str
    layer: str  # client | service | facade
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request_id: Optional[str] = None
    ident: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Spans kept in memory; parents come from the calling thread's open span
    or, across threads, from the request id both sides saw."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()
        self._undo: List[Callable[[], None]] = []

    def wrap(self, target: Any, method: str, layer: str,
             request_id_of: Optional[Callable[[Any], Optional[str]]] = None) -> None:
        """Replace ``target.method`` (on the instance) with a spanning twin."""
        original = getattr(target, method)

        def spanning(*args: Any, **kwargs: Any) -> Any:
            stack = self._open.__dict__.setdefault("stack", [])
            span = Span(method, layer, time.perf_counter(),
                        parent=stack[-1].ident if stack else None)
            with self._lock:
                span.ident = len(self.spans)
                self.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if request_id_of is not None:
                    span.request_id = request_id_of(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        setattr(target, method, spanning)
        self._undo.append(lambda: delattr(target, method))

    def reset(self) -> None:
        """Forget the spans so far (warm-up traffic); nothing may be open."""
        with self._lock:
            self.spans.clear()

    def unwrap_all(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def link_by_request_id(self) -> None:
        """Give each parentless server-side span the client span of its request."""
        clients = {span.request_id: span.ident for span in self.spans
                   if span.layer == "client" and span.request_id}
        for span in self.spans:
            if span.parent is None and span.layer != "client":
                span.parent = clients.get(span.request_id)

    def self_ms(self) -> Dict[str, float]:
        """Total self time per layer: each span minus its direct children."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.ms
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = max(0.0, span.ms - children.get(span.ident, 0.0))
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def _response_id(result: Any) -> Optional[str]:
    first = result[0] if isinstance(result, list) and result else result
    return getattr(first, "request_id", None)


def _median_ms(call: Callable[[Any], Any], items: Iterable[Any]) -> float:
    laps = []
    for item in items:
        started = time.perf_counter()
        call(item)
        laps.append((time.perf_counter() - started) * 1e3)
    return statistics.median(laps)


@dataclass
class TraceOutcome:
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Bench:
    """State shared by the replay and the probes of one traced run."""

    def __init__(self, name: str, seed: int, seconds: float, scale: spec.Scale) -> None:
        self.workload = spec.WORKLOADS[name]
        self.seed, self.seconds, self.scale = seed, seconds, scale
        self.artifacts = sut.ensure_artifacts(scale)
        self.inputs = reqgen.Inputs.from_dataset(self.artifacts.dataset)
        self.outcome = TraceOutcome()
        rng = random.Random("octobench-probe")
        self.words = rng.sample(self.inputs.keywords, 24)
        self.users = rng.sample(self.inputs.users, 24)
        self.closers: List[Callable[[], Any]] = []
        self.system: Any = None  # the Octopus restored from the workload's snapshot

    # -- probes ---------------------------------------------------------

    def probe(self, names: Sequence[str], body: Callable[[], Dict[str, float]]) -> None:
        """Run one probe; on any failure its metrics are null with the reason."""
        try:
            values = body()
            for name in names:
                self.outcome.metrics[name] = float(values[name])
        except Exception as error:  # noqa: BLE001 — a probe must never stop the run
            for name in names:
                self.outcome.metrics.setdefault(name, None)
            self.outcome.problems.append(
                f"probe {names[0].split('.')[0]} failed: "
                f"{type(error).__name__}: {error}")

    def close(self) -> None:
        for closer in reversed(self.closers):
            try:
                closer()
            except Exception as error:  # noqa: BLE001 — keep closing the rest
                self.outcome.problems.append(f"close failed: {error}")
        self.closers.clear()


def front_end(kind: str, executor: Any) -> Any:
    """Start the asyncio gateway or the threaded server in this process."""
    from repro import start_gateway
    from repro.server import serve_in_background

    return (start_gateway(executor) if kind == "asyncio"
            else serve_in_background(executor))


def _replay(bench: Bench, operations, recorder: Optional[Recorder],
            max_ops: int, budget_s: float) -> loadgen.PhaseResult:
    """Assemble front end → service (or 2-shard cluster) → facade around the
    restored system, warm up, pre-fill, then replay the list head with one
    client.  With a *recorder* every boundary is wrapped in a span first."""
    from repro.server import OctopusClient
    from repro.service import OctopusService

    opened: List[Callable[[], Any]] = []
    try:
        executor: Any = OctopusService(bench.system)
        if bench.workload.cluster:
            from repro.cluster import ClusterCoordinator

            executor = ClusterCoordinator(
                executor, shards=2, snapshot_path=bench.artifacts.snapshot_threads)
            opened.append(executor.close)
        if recorder is not None:  # after the shard forks: children stay unwrapped
            recorder.wrap(executor, "execute", "service", _response_id)
            recorder.wrap(executor, "execute_batch", "service", _response_id)
            for method in FACADE_METHODS:
                recorder.wrap(bench.system, method, "facade")
            opened.append(recorder.unwrap_all)
        server = front_end(bench.workload.frontend, executor)
        opened.append(server.shutdown_gracefully)
        name = bench.workload.name
        with OctopusClient(server.url, timeout=spec.REQUEST_TIMEOUT_S) as client:
            for request in (reqgen.warmup_requests(bench.inputs)
                            + reqgen.prefill_requests(name, bench.inputs, bench.seed)):
                client.execute(request)
        if recorder is not None:
            recorder.reset()
        counter = itertools.count()

        def make_client() -> Any:
            client = OctopusClient(server.url, timeout=spec.REQUEST_TIMEOUT_S)
            if recorder is None:
                return client

            def stamped(original: Callable) -> Callable:
                def call(payload: Any) -> Any:
                    client.request_headers["X-Request-Id"] = f"octobench-{next(counter)}"
                    return original(payload)
                return call

            def sent_id(_result: Any) -> Optional[str]:
                return client.request_headers.get("X-Request-Id")

            for method in ("execute", "execute_batch"):
                setattr(client, method, stamped(getattr(client, method)))
                recorder.wrap(client, method, "client", sent_id)
            return client

        return loadgen.run_phase(
            server.url, operations, 1, budget_s, max_ops=max_ops,
            hard_cap_s=budget_s, make_client=make_client)
    finally:
        for closer in reversed(opened):
            closer()


def replay_metrics(bench: Bench) -> Dict[str, float]:
    """Untraced then traced replay of the list head; spans → self times."""
    from repro.snapshot import load_snapshot

    outcome, scale = bench.outcome, bench.scale
    started = time.perf_counter()
    bench.system = load_snapshot(
        bench.artifacts.snapshot(bench.workload.snapshot or "serial"))
    bench.closers.append(bench.system.close)
    loaded = time.perf_counter() - started
    operations = reqgen.operations_for(
        bench.workload.name, bench.inputs, bench.seed, scale)
    budget = max(1.0, bench.seconds / 3.0)
    plain = _replay(bench, operations, None, scale.replay_requests, budget)
    recorder = Recorder()
    traced = _replay(bench, operations, recorder, plain.operations, 4.0 * budget)
    recorder.link_by_request_id()
    os.makedirs(spec.OUT, exist_ok=True)
    recorder.dump(os.path.join(spec.OUT, f"trace-{bench.workload.name}.json"))

    outcome.attempted += len(traced.samples)
    outcome.failed += sum(1 for sample in traced.samples if sample.error)
    requests = max(1, len(traced.samples))
    own = recorder.self_ms()
    client_total = sum(s.ms for s in recorder.spans if s.layer == "client")
    outcome.info.update(
        replayed_requests=len(traced.samples), spans=len(recorder.spans),
        untraced_wall_s=round(plain.wall_s, 3), traced_wall_s=round(traced.wall_s, 3))
    return {
        "snapshot.load_s": loaded,
        "replay.frontend_self_ms": own.get("client", 0.0) / requests,
        "replay.service_self_ms": own.get("service", 0.0) / requests,
        "replay.compute_self_ms": own.get("facade", 0.0) / requests,
        "replay.compute_share": own.get("facade", 0.0) / max(client_total, 1e-9),
        "service.cache_hit_share": sum(
            1 for s in traced.samples if s.response is not None
            and s.response.cache_hit) / requests,
        "bench.trace_overhead_share": traced.wall_s / max(plain.wall_s, 1e-9) - 1.0,
    }


# ----------------------------------------------------------------------
# Probes below the front end: direct calls on the same restored system.
# ----------------------------------------------------------------------

def probe_snapshot_and_build(bench: Bench) -> Dict[str, float]:
    from repro.snapshot import save_snapshot

    path = os.path.join(spec.OUT, f"probe-{os.getpid()}.octosnap")
    started = time.perf_counter()
    try:
        save_snapshot(bench.system, path)
        saved = time.perf_counter() - started
        size = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    built = bench.system.statistics()
    return {
        "snapshot.save_s": saved, "snapshot.bytes": size,
        "build.bounds_s": built["seconds.build.bounds"],
        "build.topic_samples_s": built["seconds.build.topic_samples"],
        "build.influencer_index_s": built["seconds.build.influencer_index"],
    }


def probe_core(bench: Bench) -> Dict[str, float]:
    system = bench.system
    sampled: List[float] = []
    searched: List[float] = []
    evaluations = considered = 0.0
    for word in bench.words[:10]:
        started = time.perf_counter()
        result = system.find_influencers([word], k=5)
        lap = (time.perf_counter() - started) * 1e3
        if result.statistics.get("answered_from_sample"):
            sampled.append(lap)
        else:
            searched.append(lap)
            evaluations += result.statistics["exact_evaluations"]
            considered += result.statistics["candidates_considered"]
    return {
        "core.gamma_ms": _median_ms(lambda w: system.derive_gamma([w]), bench.words),
        "core.topic_sample_query_ms": statistics.median(sampled),
        "core.topic_sample_hit_share": len(sampled) / (len(sampled) + len(searched)),
        "core.besteffort_query_ms": statistics.median(searched),
        "core.exact_evaluations_per_query": evaluations / len(searched),
        "core.bound_prune_share": 1.0 - evaluations / considered,
        "core.targeted_ms": _median_ms(
            lambda w: system.find_targeted_influencers([w], k=10, num_sets=5000),
            bench.words[10:13]),
        "core.suggest_ms": _median_ms(lambda u: system.suggest_keywords(u, k=3), bench.users),
        "core.paths_ms": _median_ms(lambda u: system.explore_paths(u), bench.users),
        "core.radar_ms": _median_ms(lambda w: system.radar([w]), bench.words),
        "index.trie_complete_ms": _median_ms(
            lambda w: system.autocomplete_keywords(w[:2], 10), bench.words),
    }


def _probabilities(bench: Bench) -> Any:
    gamma = bench.system.derive_gamma([bench.words[0]])
    return bench.system.edge_weights.edge_probabilities(gamma)


def probe_propagation(bench: Bench) -> Dict[str, float]:
    from repro.propagation import MonteCarloSpreadEstimator, RRSetCollection, kernel_provenance

    graph, probabilities = bench.system.graph, _probabilities(bench)
    sets = bench.scale.probe_sets
    started = time.perf_counter()
    collection = RRSetCollection.sample(graph, probabilities, sets, seed=1)
    sampled = time.perf_counter() - started
    started = time.perf_counter()
    seeds, _spread = collection.greedy_max_cover(10)
    covered = (time.perf_counter() - started) * 1e3
    estimator = MonteCarloSpreadEstimator(graph, probabilities, num_samples=100, seed=1)
    bench.outcome.info["propagation.kernel"] = (
        f"{bench.system.config.rr_kernel} / {kernel_provenance()}")
    return {
        "propagation.rr_sets_per_s": sets / sampled,
        "propagation.rr_nodes_per_set": len(collection.packed.nodes) / sets,
        "propagation.greedy_cover_ms": covered,
        "propagation.mc_spread_ms": _median_ms(
            lambda _n: estimator.spread(seeds[:5]), range(3)),
    }


def probe_backend(bench: Bench) -> Dict[str, float]:
    from repro import resolve_backend
    from repro.propagation import RRSetCollection

    graph, probabilities = bench.system.graph, _probabilities(bench)
    values = {}
    for kind in ("serial", "threads", "processes"):
        backend = resolve_backend(kind, 2)
        try:
            started = time.perf_counter()
            RRSetCollection.sample(graph, probabilities, bench.scale.probe_sets,
                                   seed=1, backend=backend)
            values[f"backend.map_chunks_{kind}_s"] = time.perf_counter() - started
        finally:
            backend.close()
    return values


def probe_service(bench: Bench) -> Dict[str, float]:
    from repro.service import OctopusService, ServiceResponse

    service = OctopusService(bench.system)
    hot = {"service": "paths", "user": bench.users[0]}
    envelope = service.execute(hot)
    overheads = []
    for user in bench.users:
        started = time.perf_counter()
        bench.system.suggest_keywords(user, k=3)
        direct = time.perf_counter() - started
        started = time.perf_counter()
        service.execute({"service": "suggest", "user": user, "k": 3})
        overheads.append((time.perf_counter() - started - direct) * 1e3)
    return {
        "service.hit_self_ms": _median_ms(lambda _n: service.execute(hot), range(300)),
        "service.miss_overhead_ms": statistics.median(overheads),
        "service.envelope_json_ms": _median_ms(
            lambda _n: ServiceResponse.from_json(envelope.to_json()), range(200)),
    }


def probe_front_ends(bench: Bench) -> Dict[str, float]:
    """A cached request through each front end, minus the same call in-process."""
    from repro.server import OctopusClient
    from repro.service import OctopusService

    hot = {"service": "paths", "user": bench.users[0]}
    values = {}
    for kind, metric in (("asyncio", "gateway.roundtrip_self_ms"),
                         ("threaded", "server.roundtrip_self_ms")):
        service = OctopusService(bench.system)
        server = front_end(kind, service)
        try:
            with OctopusClient(server.url, timeout=spec.REQUEST_TIMEOUT_S) as client:
                client.execute(hot)
                in_process = _median_ms(lambda _n: service.execute(hot), range(300))
                values[metric] = _median_ms(
                    lambda _n: client.execute(hot), range(300)) - in_process
                if kind == "asyncio":
                    batch = [hot] * spec.WIRE_BATCH
                    values["gateway.batch_per_request_ms"] = _median_ms(
                        lambda _n: client.execute_batch(batch), range(40)) / spec.WIRE_BATCH
                    values["obs.metrics_scrape_ms"] = _scrape_ms(client.host, client.port)
        finally:
            server.shutdown_gracefully()
    return values


def _scrape_ms(host: str, port: int) -> float:
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        def scrape(_n: int) -> None:
            connection.request("GET", "/metrics")
            connection.getresponse().read()
        return _median_ms(scrape, range(20))
    finally:
        connection.close()


def probe_cluster(bench: Bench) -> Dict[str, float]:
    from repro.cluster import ClusterCoordinator
    from repro.service import OctopusService
    from repro.snapshot import load_snapshot

    # Boot as `serve --snapshot S_t --executor cluster` does: restore the
    # pooled-backend snapshot (only that config fans out), fork the shards,
    # and make one round trip to each.
    path = bench.artifacts.snapshot_threads
    started = time.perf_counter()
    system = load_snapshot(path)
    bench.closers.append(system.close)
    coordinator = ClusterCoordinator(OctopusService(system), shards=2, snapshot_path=path)
    bench.closers.append(coordinator.close)
    coordinator.stats()
    booted = time.perf_counter() - started
    local = OctopusService(system)
    suggest = [{"service": "suggest", "user": user, "k": 3} for user in bench.users]
    routed = _median_ms(coordinator.execute, suggest)
    in_process = _median_ms(local.execute, suggest)

    def commands() -> float:
        return sum(value for key, value in coordinator.stats().items()
                   if key.startswith("cluster.shard") and key.endswith(".commands"))

    fanouts = [{"service": "targeted", "keywords": [word], "k": 10,
                "num_sets": bench.scale.fanout_sets} for word in bench.words[13:16]]
    before = commands()
    stats_cost = commands() - before  # reading the counters is itself a command
    before += stats_cost
    fanout_ms = _median_ms(coordinator.execute, fanouts)
    return {
        "cluster.boot_s": booted,
        "cluster.execute_overhead_ms": routed - in_process,
        "cluster.targeted_fanout_ms": fanout_ms,
        "cluster.shard_commands_per_request":
            (commands() - before - stats_cost) / len(fanouts),
    }


PROBES: List = [
    (("snapshot.save_s", "snapshot.bytes", "build.bounds_s",
      "build.topic_samples_s", "build.influencer_index_s"), probe_snapshot_and_build),
    (("core.gamma_ms", "core.topic_sample_query_ms", "core.topic_sample_hit_share",
      "core.besteffort_query_ms", "core.exact_evaluations_per_query",
      "core.bound_prune_share", "core.targeted_ms", "core.suggest_ms",
      "core.paths_ms", "core.radar_ms", "index.trie_complete_ms"), probe_core),
    (("propagation.rr_sets_per_s", "propagation.rr_nodes_per_set",
      "propagation.greedy_cover_ms", "propagation.mc_spread_ms"), probe_propagation),
    (("backend.map_chunks_serial_s", "backend.map_chunks_threads_s",
      "backend.map_chunks_processes_s"), probe_backend),
    (("service.hit_self_ms", "service.miss_overhead_ms",
      "service.envelope_json_ms"), probe_service),
    (("gateway.roundtrip_self_ms", "gateway.batch_per_request_ms",
      "server.roundtrip_self_ms", "obs.metrics_scrape_ms"), probe_front_ends),
    (("cluster.boot_s", "cluster.execute_overhead_ms", "cluster.targeted_fanout_ms",
      "cluster.shard_commands_per_request"), probe_cluster),
]
REPLAY_METRICS = (
    "snapshot.load_s", "replay.frontend_self_ms", "replay.service_self_ms",
    "replay.compute_self_ms", "replay.compute_share", "service.cache_hit_share",
    "bench.trace_overhead_share",
)


def metric_names() -> List[str]:
    return list(REPLAY_METRICS) + [name for names, _body in PROBES for name in names]


def trace_workload(name: str, seed: int, seconds: float, scale: spec.Scale) -> TraceOutcome:
    bench = Bench(name, seed, seconds, scale)
    shm_before = set(glob.glob(sut.SHM_GLOB))
    try:
        bench.probe(REPLAY_METRICS, lambda: replay_metrics(bench))
        for names, body in PROBES:
            bench.probe(names, lambda body=body: body(bench))
    finally:
        bench.close()
    leaked = sorted(set(glob.glob(sut.SHM_GLOB)) - shm_before)
    if leaked:
        bench.outcome.problems.append(f"leaked shared memory: {leaked}")
    return bench.outcome
