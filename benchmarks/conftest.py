"""Shared fixtures for the experiment benchmarks (E1–E22, ``bench_e*.py``).

Everything expensive is session-scoped.  The benchmark graph is kept at a
few hundred nodes so the whole suite runs in minutes on a laptop while
preserving the *shapes* the paper's claims rest on (see the repro
calibration note: billion-edge scale needs C extensions, out of scope).

Besides pytest-benchmark's human table, every run writes one
machine-readable JSON artifact (``BENCH_RESULTS.json`` next to this file,
or ``$BENCH_JSON_PATH``) with per-benchmark stats and ``extra_info``, and
*appends* the same records to ``BENCH_HISTORY.jsonl`` (or
``$BENCH_HISTORY_PATH``) keyed by git SHA and timestamp — the overwrite
artifact answers "how fast is it now", the history answers "how fast has
it been across PRs".

Setting ``BENCH_SMOKE=1`` shrinks every workload to smoke size: the CI
bench-smoke job runs the whole suite that way (with ``--benchmark-disable``
and ``BENCH_HISTORY_PATH`` pointed at a temp file) so benchmark code cannot
rot outside tier-1 collection.  Smoke numbers are *not* comparable to real
runs and must never be appended to the committed history.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess

import numpy as np
import pytest

from repro.core.besteffort import BestEffortKeywordIM
from repro.core.bounds import PrecomputationBound
from repro.core.octopus import Octopus, OctopusConfig
from repro.datasets.citation import CitationNetworkGenerator


#: Smoke mode: tiny sizes so CI can execute every benchmark module quickly.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"


@pytest.fixture(scope="session")
def bench_dataset():
    """The workhorse dataset: 400-researcher synthetic ACMCite."""
    return CitationNetworkGenerator(
        num_researchers=80 if BENCH_SMOKE else 400,
        citations_per_paper=4,
        papers_per_author=3,
        seed=1001,
    ).generate()


@pytest.fixture(scope="session")
def bench_graph(bench_dataset):
    return bench_dataset.graph


@pytest.fixture(scope="session")
def bench_weights(bench_dataset):
    return bench_dataset.true_edge_weights


@pytest.fixture(scope="session")
def bench_system(bench_dataset):
    if BENCH_SMOKE:
        config = OctopusConfig(
            num_sketches=30,
            num_topic_samples=4,
            topic_sample_rr_sets=200,
            oracle_samples=15,
            seed=1002,
        )
    else:
        config = OctopusConfig(
            num_sketches=200,
            num_topic_samples=16,
            topic_sample_rr_sets=1500,
            oracle_samples=60,
            seed=1002,
        )
    return Octopus.from_dataset(bench_dataset, config=config)


@pytest.fixture(scope="session")
def gamma_dm(bench_system):
    """The running example query: γ('data mining')."""
    return bench_system.derive_gamma("data mining")


@pytest.fixture(scope="session")
def bound_estimator(bench_weights):
    """The §II-C bound estimator the system serves, built once."""
    return PrecomputationBound(bench_weights)


@pytest.fixture(scope="session")
def best_effort_engine(bench_weights, bound_estimator):
    return BestEffortKeywordIM(
        bench_weights, bound_estimator, num_samples=60, seed=1003
    )


def pytest_sessionfinish(session, exitstatus):
    """Dump one machine-readable dict per benchmark to a JSON artifact."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None or not benchmark_session.benchmarks:
        return
    records = []
    for bench in benchmark_session.benchmarks:
        try:
            stats = bench.stats
            records.append(
                {
                    "name": bench.name,
                    "group": bench.group,
                    "fullname": bench.fullname,
                    "rounds": int(stats.rounds),
                    "mean_s": float(stats.mean),
                    "stddev_s": float(stats.stddev) if stats.rounds > 1 else 0.0,
                    "min_s": float(stats.min),
                    "max_s": float(stats.max),
                    "extra_info": dict(bench.extra_info),
                }
            )
        except Exception:  # noqa: BLE001 — never fail the run over reporting
            continue
    if not records:
        return
    target = pathlib.Path(
        os.environ.get(
            "BENCH_JSON_PATH",
            pathlib.Path(__file__).parent / "BENCH_RESULTS.json",
        )
    )
    try:
        target.write_text(json.dumps(records, indent=1, sort_keys=True))
        print(f"\nbenchmark JSON written to {target}")
    except OSError:
        pass
    _append_history(records)


def _git_sha() -> str:
    """The current commit SHA, or ``unknown`` outside a git checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=pathlib.Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:  # noqa: BLE001 — never fail the run over reporting
        return "unknown"


def _append_history(records) -> None:
    """Append this run to the across-PRs trajectory log (one JSON line)."""
    history = pathlib.Path(
        os.environ.get(
            "BENCH_HISTORY_PATH",
            pathlib.Path(__file__).parent / "BENCH_HISTORY.jsonl",
        )
    )
    entry = {
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "benchmarks": records,
    }
    try:
        with history.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"benchmark history appended to {history}")
    except OSError:
        pass
