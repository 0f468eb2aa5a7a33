"""E8 — scalability: index build and online query vs graph size.

Sweeps the network size and measures (a) full system build (all offline
indexes) and (b) online keyword-IM query latency on the built system.

Expected shape: build grows roughly linearly with edge count (walk-sum
iterations, sketch sampling and topic-sample precomputation are all
near-linear); online query latency grows far more slowly than build —
the whole point of the offline/online split.  Pure-Python absolute numbers
are modest (see the calibration note); the *ratio* build:query is the
claim being reproduced.
"""

import os

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.datasets.citation import CitationNetworkGenerator

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SIZES = [40, 80] if _SMOKE else [200, 400, 800]


def _config() -> OctopusConfig:
    if _SMOKE:
        return OctopusConfig(
            num_sketches=20,
            num_topic_samples=3,
            topic_sample_rr_sets=150,
            seed=81,
        )
    return OctopusConfig(
        num_sketches=150,
        num_topic_samples=8,
        topic_sample_rr_sets=800,
        seed=81,
    )


def _dataset(size: int):
    return CitationNetworkGenerator(
        num_researchers=size,
        citations_per_paper=4,
        papers_per_author=2,
        seed=1000 + size,
    ).generate()


@pytest.mark.benchmark(group="e8-build")
@pytest.mark.parametrize("size", SIZES)
def test_system_build(benchmark, size):
    dataset = _dataset(size)

    def build():
        return Octopus.from_dataset(dataset, config=_config())

    system = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["num_nodes"] = size
    benchmark.extra_info["num_edges"] = dataset.graph.num_edges
    benchmark.extra_info["sketch_edges"] = system.influencer_index.statistics()[
        "total_edges"
    ]


@pytest.mark.benchmark(group="e8-query")
@pytest.mark.parametrize("size", SIZES)
def test_online_query(benchmark, size):
    dataset = _dataset(size)
    system = Octopus.from_dataset(dataset, config=_config())

    def query():
        return system.find_influencers("data mining", k=5)

    result = benchmark(query)
    benchmark.extra_info["num_nodes"] = size
    benchmark.extra_info["spread"] = result.spread


@pytest.mark.benchmark(group="e8-query-suggestion")
@pytest.mark.parametrize("size", SIZES)
def test_online_suggestion(benchmark, size):
    dataset = _dataset(size)
    system = Octopus.from_dataset(dataset, config=_config())
    target = system.find_influencers("data mining", k=1).seeds[0]

    def query():
        return system.suggest_keywords(target, k=3)

    result = benchmark(query)
    benchmark.extra_info["num_nodes"] = size
    benchmark.extra_info["spread"] = result.spread
