"""What octobench measures: the system under test, workloads and metric tables.

``BENCHMARK.json`` at the repository root is the authority for workload
names, metric names, units, directions and bounds; this module loads it and
adds what its fixed schema cannot hold: how each workload's server is shaped,
its request mix, and which end-to-end metric each per-layer metric is
predicted to move.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")


def load_benchmark_json() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``SMOKE`` exists for the self-tests."""

    name: str
    users: int
    max_ops: int  # cap on timed operations per workload (0 = time-bound only)
    min_requests: int  # the timed phase runs on past --seconds to reach this
    boots: int  # setup_s is the median over this many boots
    quality_queries: int
    quality_worlds: int
    reference_rr_sets: int
    fanout_sets: int  # num_sets of the cluster workload's targeted queries
    probe_sets: int  # RR sets sampled by the propagation/backend probes
    replay_requests: int  # traced replay length


# The system under test: `octopus generate --kind citation --size 5000 --seed 7`,
# snapshots with `--seed 29` and the default (non --fast) configuration.
FULL = Scale("full", users=5000, max_ops=0, min_requests=100, boots=3,
             quality_queries=6, quality_worlds=300, reference_rr_sets=50_000,
             fanout_sets=20_000, probe_sets=20_000, replay_requests=100)
SMOKE = Scale("smoke", users=300, max_ops=40, min_requests=0, boots=1,
              quality_queries=2, quality_worlds=40, reference_rr_sets=2_000,
              fanout_sets=2_000, probe_sets=1_000, replay_requests=12)

DATASET_SEED = 7
SNAPSHOT_SEED = 29

# Ten fixed requests sent to every freshly booted server; setup_s ends when
# they are answered, so lazy sketch materialisation is inside set-up time.
WARMUP_SIZE = 10

# The answer check re-executes this share of the timed operations in-process.
CHECK_EVERY = 20  # every 20th operation = 5 %
# answers_sha256 covers this many leading operations (every run reaches them).
HASH_PREFIX = 100

BOOT_DEADLINE_S = 60.0
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    snapshot: str  # "serial" | "threads" | "" (cold build from the dataset)
    serve_args: Tuple[str, ...]
    frontend: str  # which front end the traced run assembles in-process
    cluster: bool = False  # the traced run puts a 2-shard coordinator behind it


WORKLOADS: Dict[str, Workload] = {
    "interactive_mix": Workload(
        "interactive_mix", 2, "serial",
        ("--frontend", "asyncio", "--executor", "processes", "--workers", "2"),
        "asyncio"),
    "cold_im": Workload(
        "cold_im", 1, "",
        ("--frontend", "threaded", "--executor", "serial"),
        "threaded"),
    "wire_cheap": Workload(
        "wire_cheap", 2, "serial",
        ("--frontend", "asyncio", "--executor", "processes", "--workers", "2"),
        "asyncio"),
    "cluster_fanout": Workload(
        "cluster_fanout", 1, "threads",
        ("--frontend", "threaded", "--executor", "cluster", "--shards", "2"),
        "threaded", cluster=True),
}

# interactive_mix: per class, the share of request volume, the size of the
# request universe (0 = every request distinct), the Zipf exponent of
# popularity inside it, and how many of its most popular ranks are in the
# cache before timing.  `suggest`, `paths`, `complete` and `radar` repeat with
# Zipf(1.1) skew and hit or miss the 128-entry LRU as it churns; the 8
# `influencers` keywords (one per topic) are all cached before timing and stay
# hot, because one best-effort search on the slow topic costs up to 1.4 s and
# whether the LRU happened to evict it would decide a run's throughput;
# `targeted` campaigns are never repeated and are the steady supply of heavy
# misses.  `python -m octobench shape` shows about 70 % cache hits and 17 %
# heavy misses: p50 sits inside the hit mode and p90 inside the heavy-miss
# mode, each more than 5 percentile points from a mode boundary, and every
# class p50 sits inside that class's dominant mode.
INTERACTIVE_MIX: List[Tuple[str, float, int, float, int]] = [
    # (class, volume share, universe, Zipf exponent, pre-filled ranks)
    ("influencers", 0.27, 8, 0.0, 8),
    ("targeted", 0.17, 0, 0.0, 0),
    ("suggest", 0.22, 50, 1.1, 30),
    ("paths", 0.16, 50, 1.1, 25),
    ("complete", 0.10, 40, 1.1, 20),
    ("radar", 0.08, 40, 1.1, 15),
]

# cold_im: one block of 48 distinct requests, repeated with fresh keywords
# and users, each block in its own fixed order.  The 16 `influencers` are two
# rounds over the dataset's 8 topics.  Sorted by latency a block is 42 % fast
# (suggest, paths and topic-sample answers), 33 % `targeted`, 21 % best-effort
# searches and 4 % searches on the one slow topic, so p50 and p90 sit 8 and 6
# percentile points inside a mode.  The suggest/paths requests exist so that
# every class metric is defined on every workload; compute stays > 99 % of
# the time.
COLD_IM_BLOCK: List[str] = (
    ["influencers"] * 16 + ["targeted"] * 16 + ["suggest"] * 8 + ["paths"] * 8
)

# wire_cheap: a 64-request universe, all of it in the LRU before timing.
WIRE_UNIVERSE: List[Tuple[str, int]] = [
    ("complete", 20), ("radar", 14), ("suggest", 14),
    ("paths", 6), ("influencers", 6), ("targeted", 4),
]
WIRE_BATCH = 16  # one /batch of 16 after every 64 single requests = 20 %

# cluster_fanout: one block of 40 distinct requests, each block in its own
# fixed order; users alternate between the two shards' node ranges.  A 20 000
# set fan-out and a whole-query `influencers` search cost about the same, so
# sorted by latency a block is 62.5 % cheap and 37.5 % heavy: p50 and p90 sit
# 12 and 27 percentile points inside a mode.
CLUSTER_BLOCK: List[str] = (
    ["targeted"] * 12 + ["influencers"] * 3 + ["suggest"] * 12 + ["paths"] * 13
)

# Which end-to-end metric, on which workloads, each per-layer metric should
# move.  Every pairing not listed is predicted "no change".
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "gateway.roundtrip_self_ms": ("latency_p50_ms", ("wire_cheap",)),
    "gateway.batch_per_request_ms": ("throughput_rps", ("wire_cheap",)),
    "server.roundtrip_self_ms": ("suggest_p50_ms", ("cluster_fanout",)),
    "service.hit_self_ms": ("latency_p50_ms", ("wire_cheap",)),
    "service.miss_overhead_ms": ("latency_p50_ms", ("wire_cheap",)),
    "service.envelope_json_ms": ("latency_p50_ms", ("wire_cheap",)),
    "service.cache_hit_share": ("throughput_rps", ("interactive_mix",)),
    "core.gamma_ms": ("influencers_p50_ms", ("cold_im",)),
    "core.topic_sample_query_ms": ("influencers_p50_ms", ("cold_im",)),
    "core.topic_sample_hit_share": ("influencers_p50_ms", ("cold_im",)),
    "core.besteffort_query_ms": ("influencers_p50_ms", ("cold_im",)),
    "core.exact_evaluations_per_query": ("influencers_p50_ms", ("cold_im",)),
    "core.bound_prune_share": ("latency_p90_ms", ("interactive_mix",)),
    "core.targeted_ms": ("targeted_p50_ms", ("cold_im", "cluster_fanout")),
    "propagation.rr_sets_per_s": ("targeted_p50_ms", ("cold_im", "cluster_fanout")),
    "propagation.rr_nodes_per_set": ("targeted_p50_ms", ("cold_im", "cluster_fanout")),
    "propagation.greedy_cover_ms": ("targeted_p50_ms", ("cold_im", "cluster_fanout")),
    "propagation.mc_spread_ms": ("influencers_p50_ms", ("cold_im",)),
    "core.suggest_ms": ("suggest_p50_ms", ("cluster_fanout",)),
    "core.paths_ms": ("paths_p50_ms", ("cluster_fanout",)),
    "core.radar_ms": ("latency_p50_ms", ("interactive_mix",)),
    "index.trie_complete_ms": ("latency_p50_ms", ("interactive_mix",)),
    "backend.map_chunks_serial_s": ("targeted_p50_ms", ("cold_im",)),
    "backend.map_chunks_threads_s": ("targeted_p50_ms", ("cluster_fanout",)),
    "backend.map_chunks_processes_s": ("targeted_p50_ms", ("cluster_fanout",)),
    "cluster.execute_overhead_ms": ("suggest_p50_ms", ("cluster_fanout",)),
    "cluster.targeted_fanout_ms": ("targeted_p50_ms", ("cluster_fanout",)),
    "cluster.shard_commands_per_request": ("targeted_p50_ms", ("cluster_fanout",)),
    "cluster.boot_s": ("setup_s", ("cluster_fanout",)),
    "snapshot.load_s": ("setup_s", ("interactive_mix", "wire_cheap", "cluster_fanout")),
    "snapshot.save_s": ("setup_s", ()),
    "snapshot.bytes": ("setup_s", ("interactive_mix", "wire_cheap", "cluster_fanout")),
    "build.bounds_s": ("setup_s", ("cold_im",)),
    "build.topic_samples_s": ("setup_s", ("cold_im",)),
    "build.influencer_index_s": ("setup_s", ("cold_im",)),
    "obs.metrics_scrape_ms": ("latency_p50_ms", ()),
    "replay.frontend_self_ms": ("latency_p50_ms", ("wire_cheap",)),
    "replay.service_self_ms": ("latency_p50_ms", ("wire_cheap",)),
    "replay.compute_self_ms": ("latency_p50_ms", ("cold_im",)),
    "replay.compute_share": ("throughput_rps", ("cold_im",)),
    "bench.trace_overhead_share": ("latency_p50_ms", ()),
}
