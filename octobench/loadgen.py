"""The load generator: closed-loop keep-alive clients in one process.

Each client thread owns one ``OctopusClient`` connection and sends its next
operation only after the previous answer arrived, so the offered load falls
when the server slows (closed loop; with at most ``nproc`` connections an
open loop would measure the generator's own head-of-line blocking).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from octobench.reqgen import Operation


class InsufficientSamples(ValueError):
    """Fewer than ten samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float, strict: bool = True) -> float:
    """The *q*-th percentile (linear interpolation between order statistics).

    A tail percentile is only reported when at least ten samples lie beyond
    it; the median needs five samples in all.  ``strict=False`` (smoke sizes)
    waives that and needs one sample.
    """
    count = len(values)
    beyond = count * min(q, 100.0 - q) / 100.0
    if beyond < ((2.5 if q == 50.0 else 10.0) if strict else 0.01):
        raise InsufficientSamples(
            f"p{q:g} of {count} samples has only {beyond:.1f} beyond it")
    ordered = sorted(values)
    position = (count - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Sample:
    """One answered (or failed) request, as its client saw it."""

    index: int  # position of its operation in the list
    cls: str
    request: Dict[str, Any]
    latency_ms: float
    response: Optional[object]  # the ServiceResponse, or None on transport error
    error: str = ""


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    operations: int = 0
    wall_s: float = 0.0

    def latencies(self, cls: Optional[str] = None) -> List[float]:
        return [s.latency_ms for s in self.samples
                if s.error == "" and (cls is None or s.cls == cls)]


def failure_of(response: object) -> str:
    """Why an envelope counts as a failed operation ('' when it is fine)."""
    if getattr(response, "ok", False):
        return ""
    error = getattr(response, "error", None)
    return f"envelope not ok: {getattr(error, 'code', 'unknown')}"


def send(client, operation: Operation, index: int) -> List[Sample]:
    """Send one operation; every member request becomes one sample, and the
    members of a batch all carry the batch's latency (the time to an answer)."""
    from repro.server import OctopusTransportError

    started = time.perf_counter()
    try:
        if operation.batch:
            responses = client.execute_batch(list(operation.requests))
        else:
            responses = [client.execute(operation.requests[0])]
        problem = ""
    except (OctopusTransportError, ValueError, OSError) as error:  # ValueError: batch rejected
        responses = [None] * len(operation.requests)
        problem = f"{type(error).__name__}: {error}"
    latency_ms = (time.perf_counter() - started) * 1e3
    return [
        Sample(index, cls, request, latency_ms, response,
               problem or failure_of(response))
        for cls, request, response in zip(
            operation.classes, operation.requests, responses)
    ]


def run_phase(url: str, operations: Sequence[Operation], clients: int,
              seconds: float, *, min_requests: int = 0, max_ops: int = 0,
              timeout: float = 60.0, hard_cap_s: Optional[float] = None,
              make_client=None) -> PhaseResult:
    """Drive *operations* in list order (cyclically) from *clients* threads.

    Runs for *seconds*; when *min_requests* is set it keeps going until that
    many requests are timed (so tail percentiles stay defined on a slow box),
    but never past *hard_cap_s*.  *max_ops* stops early (smoke sizes).
    """
    from repro.server import OctopusClient

    make_client = make_client or (lambda: OctopusClient(url, timeout=timeout))
    hard_cap_s = hard_cap_s if hard_cap_s is not None else 3.0 * seconds + 5.0
    ticket = itertools.count()
    result = PhaseResult()
    lock = threading.Lock()
    done = [0]
    started = time.perf_counter()

    def keep_going() -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= hard_cap_s:
            return False
        return elapsed < seconds or done[0] < min_requests

    def client_loop() -> None:
        with make_client() as client:
            while keep_going():
                index = next(ticket)
                if max_ops and index >= max_ops:
                    return
                samples = send(client, operations[index % len(operations)], index)
                with lock:
                    result.samples.extend(samples)
                    result.operations += 1
                    done[0] += len(samples)

    threads = [threading.Thread(target=client_loop, name=f"octobench-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    result.samples.sort(key=lambda sample: sample.index)
    return result


def class_shares(samples: Sequence[Sample]) -> Dict[str, float]:
    counts: Dict[str, int] = {}
    for sample in samples:
        counts[sample.cls] = counts.get(sample.cls, 0) + 1
    return {cls: count / len(samples) for cls, count in sorted(counts.items())}
