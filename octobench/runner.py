"""The end-to-end run of one workload: boot, warm up, time, check, report.

Tracing is always off here; the per-layer numbers come from
``octobench.tracer`` in a separate run.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from octobench import loadgen, quality, reqgen, spec, sut

CLASS_METRICS = ("influencers", "targeted", "suggest", "paths")


@dataclass
class RunReport:
    workload: str
    seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: List[loadgen.Sample] = field(default_factory=list, repr=False)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and bool(self.metrics)


def boot_and_warm(workload: spec.Workload, artifacts: sut.Artifacts,
                  warmup: Sequence[reqgen.Request], tag: str):
    """Spawn a server and run the fixed warm-up list; returns the server and
    the set-up seconds (spawn → healthy → warm-up answered)."""
    from repro.server import OctopusClient

    os.makedirs(spec.OUT, exist_ok=True)
    server = sut.Server(
        sut.serve_arguments(workload, artifacts),
        os.path.join(spec.OUT, f"serve-{workload.name}-{tag}.log"))
    try:
        url = server.wait_healthy()
        with OctopusClient(url, timeout=spec.REQUEST_TIMEOUT_S) as client:
            for request in warmup:
                response = client.execute(request)
                if not response.ok:
                    raise sut.BootError(f"warm-up request failed: {response.error}")
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - server.spawned


def answer_check(samples: Sequence[tuple], snapshot: str) -> Dict[int, str]:
    """Re-execute the sampled operations on a fresh in-process service restored
    from the snapshot; returns {sample position: mismatch description}."""
    from repro.service import OctopusService, deterministic_form
    from repro.snapshot import load_snapshot

    system = load_snapshot(snapshot)
    try:
        service = OctopusService(system)
        expected: Dict[str, str] = {}
        mismatches: Dict[int, str] = {}
        for position, sample in samples:
            key = json.dumps(sample.request, sort_keys=True)
            if key not in expected:
                expected[key] = deterministic_form(service.execute(sample.request))
            if deterministic_form(sample.response) != expected[key]:
                mismatches[position] = f"answer mismatch for {key}"
        return mismatches
    finally:
        system.close()


class Laps:
    """Wall seconds the benchmark itself spent per phase (printed as info)."""

    def __init__(self) -> None:
        self.spent: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.spent[phase] = round(now - self._mark, 2)
        self._mark = now


def measure_setup(workload: spec.Workload, artifacts: sut.Artifacts,
                  warmup: Sequence[reqgen.Request], boots: int,
                  report: RunReport):
    """Boot *boots* times; returns the last server (left running for the timed
    phase) and every boot's set-up seconds."""
    setups: List[float] = []
    for boot in range(boots):
        server, setup_s = boot_and_warm(workload, artifacts, warmup, str(boot))
        setups.append(setup_s)
        if boot < boots - 1:
            report.problems.extend(server.stop())
    return server, setups


class QualityQueries(threading.Thread):
    """After the timed phase: ask the fixed quality queries, then read
    ``/stats`` and the peak RSS.  Runs beside the answer check — nothing is
    timed any more, so the server works on one core and the check on the other."""

    def __init__(self, server: sut.Server, requests: Sequence[reqgen.Request]) -> None:
        super().__init__(name="octobench-quality")
        self.server, self.requests = server, requests
        self.answers: Dict[str, List[int]] = {}
        self.stats: Dict[str, object] = {}
        self.peak_rss_mb = 0.0
        self.error = ""

    def run(self) -> None:
        from repro.server import OctopusClient, OctopusTransportError

        try:
            with OctopusClient(self.server.url, timeout=spec.REQUEST_TIMEOUT_S) as client:
                for request in self.requests:
                    response = client.execute(request)
                    if response.ok:
                        self.answers[json.dumps(request, sort_keys=True)] = (
                            response.payload["seeds"])
                self.stats = client.stats()
            self.peak_rss_mb = self.server.peak_rss_mb()
        except OctopusTransportError as error:
            self.error = f"{type(error).__name__}: {error}"


def run_workload(name: str, seed: int, seconds: float, scale: spec.Scale) -> RunReport:
    from repro.server import OctopusClient, OctopusTransportError
    from repro.service import deterministic_form

    workload = spec.WORKLOADS[name]
    report = RunReport(name, seed)
    laps = Laps()
    artifacts = sut.ensure_artifacts(scale)
    inputs = reqgen.Inputs.from_dataset(artifacts.dataset)
    operations = reqgen.operations_for(name, inputs, seed, scale)
    with open(os.path.join(spec.OUT, f"requests-{name}.json"), "w",
              encoding="utf-8") as handle:
        handle.write(reqgen.replayable_json(operations))
    report.info.update(
        nproc=os.cpu_count(), loadavg_1m=os.getloadavg()[0], scale=scale.name,
        clients=workload.clients, listed_operations=len(operations),
        bench_seconds=laps.spent)
    laps.lap("inputs")

    try:
        server, setups = measure_setup(
            workload, artifacts, reqgen.warmup_requests(inputs), scale.boots, report)
    except (sut.BootError, OctopusTransportError, OSError) as error:
        report.attempted, report.failed = 1, 1
        report.problems.append(f"boot failed: {error}")
        return report
    laps.lap("boots")

    after = QualityQueries(
        server, reqgen.quality_requests(inputs, scale.quality_queries))
    try:
        with OctopusClient(server.url, timeout=spec.REQUEST_TIMEOUT_S) as client:
            for request in reqgen.prefill_requests(name, inputs, seed):
                client.execute(request)
        laps.lap("prefill")
        phase = loadgen.run_phase(
            server.url, operations, workload.clients, seconds,
            min_requests=scale.min_requests, max_ops=scale.max_ops,
            timeout=spec.REQUEST_TIMEOUT_S)
        laps.lap("timed")
        after.start()
        samples = phase.samples
        checked = [(position, sample) for position, sample in enumerate(samples)
                   if sample.index % spec.CHECK_EVERY == spec.CHECK_EVERY // 2
                   and sample.error == ""]
        try:
            mismatches = answer_check(
                checked, artifacts.snapshot(workload.snapshot or "serial"))
        finally:
            after.join()
    except (OctopusTransportError, OSError) as error:
        report.attempted += 1
        report.failed += 1
        report.problems.append(f"run aborted: {type(error).__name__}: {error}")
        return report
    finally:
        report.problems.extend(server.stop())
    laps.lap("checks_and_stop")

    for position, problem in mismatches.items():
        samples[position].error = problem
    report.samples = samples  # kept for `shape`
    failures = [sample for sample in samples if sample.error]
    report.attempted += len(samples) + len(after.requests)
    report.failed += len(failures) + len(after.requests) - len(after.answers)
    for sample in failures[:5]:
        report.problems.append(f"op {sample.index} ({sample.cls}): {sample.error}")
    if after.error:
        report.problems.append(f"after the timed phase: {after.error}")

    digest = hashlib.sha256()
    for sample in samples:
        if sample.index < spec.HASH_PREFIX and sample.response is not None:
            digest.update(deterministic_form(sample.response).encode("utf-8"))
    ok = [sample for sample in samples if sample.error == ""]
    hits = sum(1 for sample in ok if sample.response.cache_hit)
    report.info.update(
        answers_sha256=digest.hexdigest(), timed_requests=len(samples),
        timed_operations=phase.operations, checked_answers=len(checked),
        measured_wall_s=round(phase.wall_s, 3),
        cache_hit_share=round(hits / max(1, len(ok)), 4),
        class_shares=loadgen.class_shares(samples),
        setup_boots_s=[round(value, 3) for value in setups],
        server_cache_hit_rate=after.stats.get("cache.hit_rate"),
        dedup_shared_inflight=after.stats.get("executor.shared_inflight"))
    if not ok:
        return report
    strict = scale.max_ops == 0
    try:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_rps": len(ok) / phase.wall_s,
            "latency_p50_ms": loadgen.percentile(phase.latencies(), 50.0, strict),
            "latency_p90_ms": loadgen.percentile(phase.latencies(), 90.0, strict),
            "peak_rss_mb": after.peak_rss_mb,
        }
        for cls in CLASS_METRICS:
            latencies = phase.latencies(cls)
            report.info[f"{cls}_samples"] = len(latencies)
            metrics[f"{cls}_p50_ms"] = loadgen.percentile(latencies, 50.0, strict)
        metrics["seed_quality_ratio"] = quality.seed_quality_ratio(
            artifacts.dataset, artifacts.reference, after.answers, scale, seed)
    except loadgen.InsufficientSamples as error:
        report.problems.append(f"metric undefined: {error}")
        return report
    laps.lap("metrics")
    report.metrics = metrics
    return report
