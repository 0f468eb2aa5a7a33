"""Input validation helpers.

All public entry points of the library validate their arguments through these
helpers so that misuse produces a uniform, descriptive :class:`ValidationError`
instead of a deep ``IndexError`` or a silently wrong answer.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "ValidationError",
    "check_type",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_probability",
    "check_simplex",
    "check_node_id",
    "check_array_shape",
]


class ValidationError(ValueError):
    """Raised when a public API receives an invalid argument."""


def check_type(
    value: Any,
    expected: Union[Type, Tuple[Type, ...]],
    name: str,
) -> Any:
    """Return *value* if it is an instance of *expected*, else raise.

    ``bool`` is rejected where an ``int``/``float`` is expected, because a
    stray boolean almost always indicates a bug at a call site.
    """
    if isinstance(value, bool) and expected in (int, float, (int, float)):
        raise ValidationError(
            f"{name} must be {expected!r}, got boolean {value!r}"
        )
    if not isinstance(value, expected):
        raise ValidationError(
            f"{name} must be an instance of {expected!r}, "
            f"got {type(value).__name__}: {value!r}"
        )
    return value


def check_positive(value: Union[int, float], name: str) -> Union[int, float]:
    """Return *value* if it is a strictly positive number, else raise."""
    check_type(value, (int, float), name)
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(value: Union[int, float], name: str) -> Union[int, float]:
    """Return *value* if it is a non-negative number, else raise."""
    check_type(value, (int, float), name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    value: Union[int, float],
    low: float,
    high: float,
    name: str,
    *,
    inclusive: bool = True,
) -> Union[int, float]:
    """Return *value* if ``low <= value <= high`` (or strict), else raise."""
    check_type(value, (int, float), name)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValidationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return *value* if it is a valid probability in ``[0, 1]``."""
    return check_in_range(value, 0.0, 1.0, name)


def check_simplex(vector: np.ndarray, name: str, *, atol: float = 1e-6) -> np.ndarray:
    """Return *vector* as a float array if it lies on the probability simplex.

    The vector must be one-dimensional, non-negative, and sum to 1 within
    *atol*.
    """
    array = np.asarray(vector, dtype=np.float64)
    if array.ndim != 1:
        raise ValidationError(
            f"{name} must be a 1-d probability vector, got shape {array.shape}"
        )
    if array.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.any(array < -atol):
        raise ValidationError(f"{name} must be non-negative, got {array!r}")
    total = float(array.sum())
    # np.isclose(total, 1.0, atol=atol) inline (its rtol is 1e-05): a
    # scalar compare instead of an array round trip, and NaN / ±inf still
    # fail it.
    if not abs(total - 1.0) <= atol + 1e-05:
        raise ValidationError(
            f"{name} must sum to 1 (got {total:.6f}); normalise it first"
        )
    return array


def check_node_id(node: int, num_nodes: int, name: str = "node") -> int:
    """Return *node* if it is a valid node identifier for a graph."""
    if isinstance(node, (np.integer,)):
        node = int(node)
    check_type(node, int, name)
    if not 0 <= node < num_nodes:
        raise ValidationError(
            f"{name} must be in [0, {num_nodes}), got {node}"
        )
    return node


def check_array_shape(
    array: np.ndarray,
    shape: Tuple[Optional[int], ...],
    name: str,
) -> np.ndarray:
    """Return *array* if its shape matches *shape* (``None`` = any size)."""
    array = np.asarray(array)
    if array.ndim != len(shape):
        raise ValidationError(
            f"{name} must have {len(shape)} dimensions, got {array.ndim}"
        )
    for axis, (actual, expected) in enumerate(zip(array.shape, shape)):
        if expected is not None and actual != expected:
            raise ValidationError(
                f"{name} has size {actual} on axis {axis}, expected {expected}"
            )
    return array


def check_unique(items: Iterable[Any], name: str) -> None:
    """Raise if *items* contains duplicates."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValidationError(f"{name} contains duplicate entry {item!r}")
        seen.add(item)
