"""Paper baselines and reference engines: run by benchmarks and tests, never served.

This package sits beside ``src/repro`` and is not installed with it
(``pyproject.toml`` packages ``src`` only).  ``python -m pytest`` from the
repository root puts the root on ``sys.path``, which is how the tests and
benchmarks import it.

* :mod:`reference.greedy` — CELF greedy IM (benchmarks E1, E7).
* :mod:`reference.besteffort` — the paper's best-effort keyword-IM search
  (§II-C), which the served system replaced with RIS on γ (E1–E3, E7).
* :mod:`reference.bounds` — its walk-sum upper bounds (E2).
* :mod:`reference.heuristics` — degree / degree-discount / PageRank / random
  seed selection (E7), on :mod:`reference.analysis`.
* :mod:`reference.mia` — the MIA model [4] and MIA-greedy (E7, and an
  independent spread reference in tests).
* :mod:`reference.worlds` — threshold live-edge worlds, an independent
  forward-IC reference.
* :mod:`reference.cascade` — one traced forward cascade.
* :mod:`reference.rrsets` — one RR set at a time.
* :mod:`reference.estimators` — the spread-oracle protocol and the RR-set
  oracle.
"""
