"""Response envelope and error type of the OCTOPUS service API.

Every service call returns a :class:`ServiceResponse` — success or failure,
never an exception.  The payload is restricted to plain JSON types (dicts,
lists, strings, numbers, booleans, ``None``) so that a response written to a
log can be parsed back into an identical object: ``ServiceResponse.from_json
(response.to_json()) == response`` holds for every service.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "ServiceError",
    "ServiceResponse",
    "deterministic_form",
    "jsonify",
]

#: Payload keys that carry wall-clock measurements rather than computed
#: content.  Everything else in a payload is covered by the determinism
#: contract (fixed seed ⇒ identical bytes on any executor or transport).
VOLATILE_PAYLOAD_KEYS = frozenset({"elapsed_seconds"})


def _strip_volatile(value: Any) -> Any:
    """Deep-copy *value* with volatile measurement keys removed."""
    if isinstance(value, dict):
        return {
            key: _strip_volatile(item)
            for key, item in value.items()
            if key not in VOLATILE_PAYLOAD_KEYS
        }
    if isinstance(value, list):
        return [_strip_volatile(item) for item in value]
    return value


def deterministic_form(response: "ServiceResponse") -> str:
    """The response's deterministic content as canonical JSON text.

    Serving-time measurements — the envelope's ``latency_ms`` and
    ``cache_hit`` flags, and wall-clock ``elapsed_seconds`` fields at any
    depth inside the payload — are stripped; what remains is exactly what
    the determinism contract promises to reproduce bit-for-bit for a fixed
    seed, on any executor, over any transport.  Two responses to the same
    query therefore compare **byte-identical** here whether they were
    computed in-process, on a worker pool, or across an HTTP socket.
    """
    return json.dumps(
        {
            "service": response.service,
            "ok": response.ok,
            "payload": _strip_volatile(response.payload)
            if response.payload is not None
            else None,
            "error": response.error.to_dict() if response.error is not None else None,
        },
        sort_keys=True,
    )


def jsonify(value: Any) -> Any:
    """Deep-convert *value* into plain JSON types.

    NumPy scalars become Python numbers, arrays become lists, tuples become
    lists, mapping keys become strings.  Anything not representable raises
    :class:`ValidationError` rather than producing a payload that would fail
    to serialize later.
    """
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    raise ValidationError(
        f"value of type {type(value).__name__} is not JSON-serializable"
    )


@dataclass(frozen=True)
class ServiceError:
    """Structured failure carried inside a :class:`ServiceResponse`.

    ``code`` is machine-readable (``invalid_request``, ``unknown_service``,
    ``malformed_request``, ``rate_limited``, ``internal_error``); ``message``
    is the human-readable explanation (including e.g. "did you mean ...?"
    completion hints); ``details`` holds optional structured context.
    """

    code: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dict."""
        return {
            "code": self.code,
            "message": self.message,
            "details": jsonify(self.details),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceError":
        """Rebuild an error from its :meth:`to_dict` form."""
        return cls(
            code=str(payload["code"]),
            message=str(payload["message"]),
            details=dict(payload.get("details") or {}),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """Uniform envelope returned by every service call.

    ``ok`` tells success from failure; exactly one of ``payload`` / ``error``
    is meaningful.  ``latency_ms`` measures the full serving path (middleware
    included), ``cache_hit`` marks answers served from the result cache (or
    shared within a batch) without recomputation.

    ``request_id`` and ``timings`` are the tracing section
    (:mod:`repro.obs`): the per-request id stamped at the front door and,
    when the caller opted into debug timings, the per-stage wall-clock
    breakdown in milliseconds.  Like ``latency_ms`` / ``cache_hit`` they
    are wall-clock measurements outside the determinism contract —
    :func:`deterministic_form` never includes them — and they are only
    emitted on the wire when set, so untraced envelopes keep their exact
    historical byte shape.
    """

    service: str
    ok: bool
    payload: Optional[Dict[str, Any]] = None
    error: Optional[ServiceError] = None
    latency_ms: float = 0.0
    cache_hit: bool = False
    request_id: Optional[str] = None
    timings: Optional[Dict[str, float]] = None

    def as_cache_hit(self) -> "ServiceResponse":
        """This answer as handed to a later or duplicate request.

        ``cache_hit=True`` over a deep-copied payload, so a caller mutating
        its response can never poison the cache or another caller.
        """
        return dataclasses.replace(
            self, cache_hit=True, payload=copy.deepcopy(self.payload)
        )

    def raise_for_error(self) -> "ServiceResponse":
        """Convenience for callers that do want an exception on failure."""
        if not self.ok:
            assert self.error is not None
            raise ValidationError(f"[{self.error.code}] {self.error.message}")
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dict.

        The tracing fields are emitted only when set, so responses from
        an untraced serve are byte-identical to the pre-tracing wire
        format.
        """
        body: Dict[str, Any] = {
            "service": self.service,
            "ok": self.ok,
            "payload": jsonify(self.payload) if self.payload is not None else None,
            "error": self.error.to_dict() if self.error is not None else None,
            "latency_ms": float(self.latency_ms),
            "cache_hit": self.cache_hit,
        }
        if self.request_id is not None:
            body["request_id"] = self.request_id
        if self.timings is not None:
            body["timings"] = {
                str(name): float(value) for name, value in self.timings.items()
            }
        return body

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """JSON encoding of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        error = payload.get("error")
        timings = payload.get("timings")
        return cls(
            service=str(payload["service"]),
            ok=bool(payload["ok"]),
            payload=payload.get("payload"),
            error=ServiceError.from_dict(error) if error is not None else None,
            latency_ms=float(payload.get("latency_ms", 0.0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            request_id=payload.get("request_id"),
            timings=dict(timings) if timings is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "ServiceResponse":
        """Parse a JSON string produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def success(
        cls,
        service: str,
        payload: Dict[str, Any],
        *,
        cache_hit: bool = False,
    ) -> "ServiceResponse":
        """Build a success envelope (payload is deep-converted to JSON types)."""
        return cls(
            service=service,
            ok=True,
            payload=jsonify(payload),
            cache_hit=cache_hit,
        )

    @classmethod
    def failure(
        cls,
        service: str,
        code: str,
        message: str,
        *,
        details: Optional[Dict[str, Any]] = None,
    ) -> "ServiceResponse":
        """Build an error envelope."""
        return cls(
            service=service,
            ok=False,
            error=ServiceError(code=code, message=message, details=details or {}),
        )
