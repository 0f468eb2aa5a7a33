"""Shared utilities for the OCTOPUS reproduction.

This subpackage has no dependencies on the rest of :mod:`repro`; every other
subpackage may depend on it.
"""

from repro.utils.heap import LazyGreedyQueue
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timer import Stopwatch, Timer
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
    check_simplex,
    check_type,
)

__all__ = [
    "LazyGreedyQueue",
    "as_generator",
    "spawn_generators",
    "Stopwatch",
    "Timer",
    "ValidationError",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_simplex",
    "check_type",
]
