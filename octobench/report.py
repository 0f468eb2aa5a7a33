"""Printing and comparing runs: the result line, ``shape`` and ``repeat``."""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Sequence

from octobench import runner, spec


def _table(declared: Dict, key: str) -> Dict[str, Dict]:
    return {row["name"]: row for row in declared[key]}


def result_line(metrics: Dict[str, object], table: Dict[str, Dict],
                correct: bool, attempted: int, failed: int) -> Dict:
    """The contract's JSON object: every declared metric, value and unit."""
    return {
        "correct": bool(correct and set(metrics) >= set(table)),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": row["unit"]}
                    for name, row in table.items() if name in metrics},
    }


def print_metrics(title: str, metrics: Dict[str, object], table: Dict[str, Dict],
                  info: Dict[str, object], problems: Sequence[str]) -> None:
    """Every metric by name with unit, direction and regression bound."""
    print(f"== {title}")
    for name, value in metrics.items():
        row = table.get(name, {})
        shown = "null" if value is None else f"{value:.4f}"
        bound = f"  bound {row['bound']:.0%}" if "bound" in row else ""
        moves = spec.MOVES.get(name)
        target = f"  -> {moves[0]} on {','.join(moves[1]) or 'nothing gated'}" if moves else ""
        print(f"  {name:<36s}{shown:>14s} {row.get('unit', ''):<6s}"
              f" {row.get('better', ''):<7s}{bound}{target}")
    for key, value in info.items():
        print(f"  info {key} = {value}")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)


def run_one(name: str, seed: int, seconds: float, scale: spec.Scale,
            traced: bool, declared: Dict) -> Dict:
    if traced:
        from octobench import tracer

        table = _table(declared, "per_layer")
        outcome = tracer.trace_workload(name, seed, seconds, scale)
    else:
        table = _table(declared, "end_to_end")
        outcome = runner.run_workload(name, seed, seconds, scale)
    state = "ok" if outcome.correct else "FAILED"
    print_metrics(f"{name}{' traced' if traced else ''} (seed {seed}) {state}: "
                  f"{outcome.attempted} attempted, {outcome.failed} failed",
                  outcome.metrics, table, outcome.info, outcome.problems)
    return result_line(outcome.metrics, table, outcome.correct,
                       outcome.attempted, outcome.failed)


def _histogram(latencies: Sequence[float]) -> List[str]:
    """Counts in half-decade latency buckets from 0.1 ms up."""
    edges = [10 ** (exponent / 2.0) for exponent in range(-2, 9)]
    counts = [0] * (len(edges) + 1)
    for value in latencies:
        counts[sum(1 for edge in edges if value >= edge)] += 1
    lines, running = [], 0
    for bucket, count in enumerate(counts):
        if not count:
            continue
        low = 0.0 if bucket == 0 else edges[bucket - 1]
        high = math.inf if bucket == len(edges) else edges[bucket]
        running += count
        lines.append(f"    {low:9.2f} .. {high:9.2f} ms {count:7d} "
                     f"{100.0 * count / len(latencies):5.1f}%  cum "
                     f"{100.0 * running / len(latencies):5.1f}%  "
                     + "#" * round(50 * count / len(latencies)))
    return lines


def _mode_key(sample) -> tuple:
    """What decides a request's cost regime: its class, whether the result
    cache or a topic sample answered it, and its sampling budget."""
    response = sample.response
    statistics_ = (response.payload or {}).get("statistics") or {}
    return (sample.cls, bool(response.cache_hit),
            bool(statistics_.get("answered_from_sample")),
            sample.request.get("num_sets", 0))


def mode_boundaries(samples: Sequence) -> List[float]:
    """Percentile positions where the latency distribution changes regime.

    Samples are grouped by cost regime, groups ordered by median latency and
    neighbours within 1.5x of each other merged into one mode; each remaining
    border between modes is a boundary, in percentile points.
    """
    groups: Dict[tuple, List[float]] = {}
    for sample in samples:
        groups.setdefault(_mode_key(sample), []).append(sample.latency_ms)
    ordered = sorted(groups.values(), key=lambda v: sorted(v)[len(v) // 2])
    boundaries, below, previous = [], 0, None
    for latencies in ordered:
        median = sorted(latencies)[len(latencies) // 2]
        if previous is not None and median > 1.5 * previous:
            boundaries.append(100.0 * below / len(samples))
        below += len(latencies)
        previous = median
    return boundaries


def shape(names: Sequence[str], seed: int, seconds: float, scale: spec.Scale) -> int:
    """Latency histogram and class shares per workload, and how far the
    reported percentiles sit from the nearest mode boundary (the mode rule:
    at least 5 percentile points)."""
    status = 0
    for name in names:
        outcome = runner.run_workload(name, seed, seconds, scale)
        ok = [sample for sample in outcome.samples if sample.error == ""]
        if not ok:
            print(f"== {name}: no samples ({outcome.problems})")
            status = 1
            continue
        print(f"== {name}: {len(ok)} timed requests")
        for line in _histogram([sample.latency_ms for sample in ok]):
            print(line)
        boundaries = mode_boundaries(ok)
        print("  mode boundaries at percentiles "
              + (", ".join(f"{edge:.1f}" for edge in boundaries) or "none")
              + f"; cache-hit share {outcome.info['cache_hit_share']:.3f}")
        for q in (50.0, 90.0):
            distance = min((abs(q - edge) for edge in boundaries), default=100.0)
            verdict = "ok" if distance >= 5.0 else "TOO CLOSE"
            status |= distance < 5.0
            print(f"  p{q:g} is {distance:.1f} percentile points from a mode "
                  f"boundary: {verdict}")
        for cls, share in outcome.info["class_shares"].items():
            members = [s for s in ok if s.cls == cls]
            hits = sum(1 for s in members if s.response.cache_hit)
            spent = sum(s.latency_ms for s in members) / 1e3
            print(f"  class {cls:<12s} share {share:.3f}  n={len(members):5d}  "
                  f"hit share {hits / len(members):.3f}  client-seconds {spent:7.2f}")
    return int(status)


def repeat(names: Sequence[str], seed: int, seconds: float, scale: spec.Scale,
           declared: Dict) -> int:
    """Two full sets on the same checkout: per metric and workload the relative
    difference against its bound, plus answers_sha256 equality."""
    table = _table(declared, "end_to_end")
    sets = [{name: runner.run_workload(name, seed, seconds, scale) for name in names}
            for _ in range(2)]
    status = 0
    for name in names:
        first, second = sets[0][name], sets[1][name]
        same = first.info.get("answers_sha256") == second.info.get("answers_sha256")
        print(f"== {name}: answers_sha256 {'equal' if same else 'DIFFER'}; "
              f"failed {first.failed}+{second.failed}")
        if not (same and first.correct and second.correct):
            status = 1
        for metric, row in table.items():
            a, b = first.metrics.get(metric), second.metrics.get(metric)
            if a is None or b is None:
                print(f"  {metric:<24s} missing")
                status = 1
                continue
            worse = (b - a) / a if row["better"] == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= row["bound"] else "VIOLATION"
            status |= verdict != "ok"
            print(f"  {metric:<24s}{a:>12.4f}{b:>12.4f}  worse by {worse:+7.1%} "
                  f"(bound {row['bound']:.0%})  {verdict}")
    return int(status)
