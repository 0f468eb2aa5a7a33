"""Influence-maximization building blocks the served system runs on.

* :class:`~repro.im.base.IMResult` — the result type of every IM answer.
* :func:`ris_im` — reverse-reachable-set IM in the TIM/IMM family [8].

The paper's baselines (CELF greedy, MIA, degree / degree-discount /
PageRank / random) are not served; they live in the repository's
``reference`` package, next to the benchmarks and tests that run them.
"""

from repro.im.base import IMResult
from repro.im.ris import recommended_num_sets, ris_im

__all__ = [
    "IMResult",
    "ris_im",
    "recommended_num_sets",
]
