"""E21 — warm restart: snapshot boot vs cold dataset build.

The economics the snapshot subsystem (PR 9) must justify: a serving host
that restarts — or a coordinator respawning a dead shard — skips dataset
ingestion (tokenisation, EM topic fitting, vocabulary construction) and
reconstructs the system from packed OCTOSNAP arrays.  Three
measurements:

* **cold build** — ``Octopus.from_dataset`` end to end, the price every
  boot paid before snapshots existed;
* **snapshot boot** — ``load_snapshot`` on the same system: checksum
  verification + array adoption + index rebuild (the indexes are
  deliberately rebuilt, not serialized — see the format module), the
  price a warm restart pays;
* **snapshot write** — ``save_snapshot``, the once-per-deploy cost.

``extra_info`` records the snapshot file size and the cold/warm ratio so
``BENCH_HISTORY.jsonl`` tracks both the speedup and the disk footprint
as the format evolves.
"""

import os

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.snapshot import load_snapshot, save_snapshot

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

CONFIG = OctopusConfig(
    num_sketches=30 if _SMOKE else 200,
    num_topic_samples=4 if _SMOKE else 16,
    topic_sample_rr_sets=200 if _SMOKE else 1500,
    seed=1002,
)


@pytest.fixture(scope="module")
def built_system(bench_dataset):
    return Octopus.from_dataset(bench_dataset, config=CONFIG)


@pytest.fixture(scope="module")
def snapshot_file(built_system, tmp_path_factory):
    path = tmp_path_factory.mktemp("e21") / "bench.octosnap"
    save_snapshot(built_system, str(path), source="bench_dataset")
    return str(path)


@pytest.mark.benchmark(group="e21-snapshot")
def test_cold_build_from_dataset(benchmark, bench_dataset):
    """The full ingestion pipeline — the cost a snapshot boot avoids."""
    system = benchmark.pedantic(
        lambda: Octopus.from_dataset(bench_dataset, config=CONFIG),
        rounds=3,
        iterations=1,
    )
    assert system.graph.num_nodes > 0
    benchmark.extra_info["num_nodes"] = int(system.graph.num_nodes)
    benchmark.extra_info["num_edges"] = int(system.graph.num_edges)


@pytest.mark.benchmark(group="e21-snapshot")
def test_snapshot_boot(benchmark, snapshot_file, bench_dataset):
    """Checksummed restore + index rebuild — the warm-restart price."""
    import time

    cold_started = time.perf_counter()
    Octopus.from_dataset(bench_dataset, config=CONFIG)
    cold_seconds = time.perf_counter() - cold_started

    system = benchmark.pedantic(
        lambda: load_snapshot(snapshot_file), rounds=3, iterations=1
    )
    assert system.graph.num_nodes > 0
    benchmark.extra_info["snapshot_bytes"] = os.path.getsize(snapshot_file)
    benchmark.extra_info["cold_build_seconds"] = round(cold_seconds, 6)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["warm_over_cold_ratio"] = round(
            benchmark.stats.stats.mean / max(cold_seconds, 1e-9), 3
        )


@pytest.mark.benchmark(group="e21-snapshot")
def test_snapshot_write(benchmark, built_system, tmp_path):
    """The once-per-deploy cost of producing the OCTOSNAP file."""
    target = str(tmp_path / "write.octosnap")

    def run():
        save_snapshot(built_system, target, source="bench")
        return os.path.getsize(target)

    size = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["snapshot_bytes"] = int(size)
