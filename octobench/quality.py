"""``seed_quality_ratio``: are the returned seeds as good as a reference set?

The grader is the benchmark's own forward independent-cascade Monte-Carlo
over the dataset's public files (``graph.tsv`` edge order is edge-id order,
``edge_weights.npy`` holds one row of per-topic probabilities per edge), so a
kernel or oracle change in the program cannot grade itself.  Returned and
reference seeds are simulated in the same live-edge worlds (shared uniform
thresholds), which makes the ratio far steadier than either spread.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import numpy as np

from octobench import reqgen, spec


class CascadeGrader:
    """Forward-IC spread by live-edge worlds over the dataset files."""

    def __init__(self, dataset: str, worlds: int, seed: int) -> None:
        sources: List[int] = []
        targets: List[int] = []
        num_nodes = 0
        with open(os.path.join(dataset, "graph.tsv"), encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("#"):
                    parts = line.split()
                    if len(parts) == 3 and parts[1] == "nodes":
                        num_nodes = int(parts[2])
                elif line.strip() and not line.startswith("L\t"):
                    source, target = line.split("\t")
                    sources.append(int(source))
                    targets.append(int(target))
        self.num_nodes = num_nodes
        self.weights = np.load(os.path.join(dataset, "edge_weights.npy"))
        if self.weights.shape[0] != len(sources):
            raise ValueError("edge_weights.npy does not match graph.tsv")
        order = np.argsort(np.asarray(sources), kind="stable")
        self.order = order
        self.targets = np.asarray(targets, dtype=np.int64)[order]
        counts = np.bincount(np.asarray(sources)[order], minlength=num_nodes)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        rng = np.random.default_rng(seed)
        self.thresholds = rng.random((worlds, len(sources)), dtype=np.float32)

    def spreads(self, gamma: Sequence[float],
                seed_sets: Sequence[Sequence[int]]) -> List[float]:
        """Mean cascade size of each seed set under topic mixture *gamma*."""
        probabilities = (self.weights @ np.asarray(gamma, dtype=np.float64))[self.order]
        totals = [0] * len(seed_sets)
        for thresholds in self.thresholds:
            live = thresholds < probabilities
            for index, seeds in enumerate(seed_sets):
                totals[index] += self._reach(live, seeds)
        return [total / len(self.thresholds) for total in totals]

    def _reach(self, live: np.ndarray, seeds: Sequence[int]) -> int:
        active = np.zeros(self.num_nodes, dtype=bool)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        active[frontier] = True
        reached = len(frontier)
        while len(frontier):
            starts, stops = self.offsets[frontier], self.offsets[frontier + 1]
            lengths = stops - starts
            if not lengths.sum():
                break
            edges = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])),
                              lengths) + np.arange(lengths.sum())
            hit = self.targets[edges[live[edges]]]
            frontier = np.unique(hit[~active[hit]])
            active[frontier] = True
            reached += len(frontier)
        return reached


def write_reference(dataset: str, snapshot: str, path: str,
                    scale: spec.Scale) -> None:
    """Reference seed sets: ``repro.im`` RIS greedy at a large RR-set budget,
    computed once per checkout for the fixed quality queries."""
    from repro.im import ris_im
    from repro.snapshot import load_snapshot

    system = load_snapshot(snapshot)
    try:
        inputs = reqgen.Inputs.from_dataset(dataset)
        reference: Dict[str, Dict] = {}
        for request in reqgen.quality_requests(inputs, scale.quality_queries):
            gamma = system.derive_gamma(request["keywords"])
            result = ris_im(
                system.graph, system.edge_weights.edge_probabilities(gamma),
                request["k"], num_sets=scale.reference_rr_sets, seed=2018)
            reference[json.dumps(request, sort_keys=True)] = {
                "gamma": [float(value) for value in gamma],
                "seeds": [int(node) for node in result.seeds],
            }
    finally:
        system.close()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, sort_keys=True, indent=1)


def seed_quality_ratio(dataset: str, reference_path: str, answers: Dict[str, List[int]],
                       scale: spec.Scale, seed: int) -> float:
    """Σ spread(returned seeds) ÷ Σ spread(reference seeds) over the quality
    queries; *answers* maps each request's JSON to the seeds the server gave."""
    with open(reference_path, encoding="utf-8") as handle:
        reference = json.load(handle)
    grader = CascadeGrader(dataset, scale.quality_worlds, seed)
    returned_total = reference_total = 0.0
    for key, entry in reference.items():
        returned, expected = grader.spreads(
            entry["gamma"], [answers[key], entry["seeds"]])
        returned_total += returned
        reference_total += expected
    return returned_total / reference_total
