"""Random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None``, an integer, or a :class:`numpy.random.Generator`, and converts it
through :func:`as_generator`.  Components that spawn parallel sub-streams use
:func:`spawn_generators` so that results are reproducible regardless of the
order in which sub-streams are consumed.
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "base_entropy",
    "query_rng",
    "spawn_generators",
]

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so callers can share
    one stream across components when they want correlated randomness.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create *count* independent generators derived from *seed*.

    The streams are statistically independent (via ``SeedSequence.spawn``) and
    deterministic given the same *seed* and *count*.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a fresh seed sequence from the generator's bit stream so the
        # spawned streams remain reproducible with respect to generator state.
        entropy = int(seed.integers(0, 2**63 - 1))
        sequence = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def base_entropy(seed: SeedLike) -> int:
    """Collapse any seed form into one integer entropy value.

    A live generator gives one draw; ``None`` gives fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, dtype=np.uint64)[0])
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1)[0])
    return int(seed)


def query_rng(entropy: int, probabilities: np.ndarray) -> np.random.Generator:
    """Per-query generator keyed by (engine entropy, query probabilities).

    Identical queries draw identical randomness regardless of what ran
    before them, so answers are reproducible: a cached response, a replayed
    log entry and a batched duplicate all equal a fresh computation.
    """
    digest = hashlib.blake2b(
        np.ascontiguousarray(probabilities, dtype=np.float64).tobytes(),
        digest_size=8,
    ).digest()
    return np.random.default_rng(
        np.random.SeedSequence([entropy, int.from_bytes(digest, "little")])
    )
