"""The optional compiled core of the RR kernel, and the coin it shares.

:mod:`repro.propagation._rrnative` is a C extension (built by ``python
setup.py build_ext --inplace`` or a ``pip install`` with a working
compiler) with two entry points: ``sample_chunk`` walks a whole chunk of
RR sets in one call, releasing the GIL, and ``cover_update`` is the greedy
max-cover inner step.  Both are accelerators only.  The sampler draws the
counter-keyed coin :func:`splitmix64` defines and writes the canonical
member order of :func:`repro.propagation.kernels.sample_packed_rr_sets`,
and the cover update does the same exact integer arithmetic as its NumPy
path, so ``deterministic_form()`` bytes never depend on whether the
extension built.  Which path runs is observability only
(:func:`kernel_provenance`).

Set ``REPRO_NATIVE=0`` to force the NumPy path even when the extension is
importable (CI uses this to prove both paths pass the same suite).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.env import env_switch

__all__ = [
    "HAVE_COMPILED",
    "coin_thresholds",
    "kernel_provenance",
    "live_coins",
    "splitmix64",
    "use_compiled",
]

try:  # pragma: no cover — exercised only where the extension built
    from repro.propagation import _rrnative
except ImportError:  # pragma: no cover — the NumPy-only leg
    _rrnative = None

#: Whether the compiled extension imported (the NumPy path always works).
HAVE_COMPILED = _rrnative is not None

#: ``REPRO_NATIVE=0`` (or ``off`` / ``fallback``) forces the NumPy path.
#: ``None`` means "consult the environment at call time"; tests may pin
#: this attribute to ``True``/``False`` to force a path directly.
_FORCED_FALLBACK: Optional[bool] = None

_FALLBACK_VALUES = ("0", "off", "fallback")
_COMPILED_VALUES = ("", "1", "on", "compiled", "native")


def _forced_fallback() -> bool:
    """Whether ``REPRO_NATIVE`` forces the NumPy path right now.

    An unrecognized value (``REPRO_NATIVE=2``) raises a
    :class:`~repro.utils.validation.ValidationError` at the first kernel
    dispatch instead of silently selecting the compiled path.
    """
    if _FORCED_FALLBACK is not None:
        return _FORCED_FALLBACK
    return not env_switch(
        "REPRO_NATIVE", on=_COMPILED_VALUES, off=_FALLBACK_VALUES
    )


# splitmix64 constants (Steele, Lea & Flood 2014), as uint64 scalars so the
# NumPy arithmetic below wraps exactly like the C core's.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def use_compiled() -> bool:
    """Whether calls will run on the compiled extension right now.

    ``REPRO_NATIVE`` is validated first, so a typo raises whether or not
    the extension happens to be built.
    """
    return not _forced_fallback() and HAVE_COMPILED


def kernel_provenance() -> str:
    """``"compiled"`` or ``"numpy"``: which path the RR kernel and the
    greedy cover update run on right now (observability)."""
    return "compiled" if use_compiled() else "numpy"


def splitmix64(key: int, counters: np.ndarray) -> np.ndarray:
    """Counter-based splitmix64: output ``mix(key + c·γ)`` for each counter.

    *counters* must be a uint64 array; it is consumed (the result is
    computed in its buffer).  Pure wrapping uint64 array arithmetic (which
    never warns on overflow), so any batching of the counters yields the
    same outputs.
    """
    z = counters
    z *= _GAMMA
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def coin_thresholds(probabilities: np.ndarray) -> np.ndarray:
    """The uint64 threshold ``⌈p·2⁵³⌉`` of every probability ``p``.

    A 53-bit coin ``u`` is live iff ``u < ⌈p·2⁵³⌉``, which is exactly the
    float test ``u·2⁻⁵³ < p``: ``p·2⁵³`` is exact in float64 (a power-of-two
    scale), and for an integer ``u``, ``u < x`` iff ``u < ⌈x⌉``.
    """
    scaled = np.asarray(probabilities, dtype=np.float64) * 2.0**53
    return np.ceil(scaled, out=scaled).astype(np.uint64)


def live_coins(key: int, counters: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Positions ``i`` whose coin ``splitmix64(key, counters[i]) >> 11``
    falls below ``thresholds[i]`` (:func:`coin_thresholds`).

    The NumPy coin of both the RR kernel and the forward worlds; the C core
    makes the same comparison.  *counters* is consumed as by
    :func:`splitmix64`.
    """
    coins = splitmix64(key, counters)
    coins >>= np.uint64(11)
    return np.flatnonzero(coins < thresholds)


def sample_chunk(
    graph,
    edge_probabilities: np.ndarray,
    key: int,
    first: int,
    roots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """RR sets ``first + i`` rooted at ``roots[i]`` on the compiled core;
    its buffers are re-wrapped without a copy."""
    nodes_buf, offsets_buf = _rrnative.sample_chunk(
        int(graph.num_nodes),
        np.ascontiguousarray(graph.in_offsets, dtype=np.int64),
        np.ascontiguousarray(graph.in_sources, dtype=np.int64),
        np.ascontiguousarray(graph.in_edge_ids, dtype=np.int64),
        edge_probabilities,
        roots,
        int(key),
        int(first),
    )
    return (
        np.frombuffer(nodes_buf, dtype=np.int64),
        np.frombuffer(offsets_buf, dtype=np.int64),
    )


def cover_update(seed_node: int, *arrays: np.ndarray) -> int:
    """The compiled greedy cover update (see
    :func:`repro.propagation.kernels.apply_cover_seed`)."""
    return int(_rrnative.cover_update(int(seed_node), *arrays))
