"""Asyncio serving front end with production-traffic controls.

``repro.gateway`` is the scale-out front door to the OCTOPUS serving
stack: an asyncio-native HTTP server that multiplexes thousands of
keep-alive connections on one event loop and hands admitted compute to
any service executor — :class:`~repro.service.OctopusService` or
:class:`~repro.cluster.ClusterCoordinator` (``--executor processes`` or
``cluster``) — through a bounded dispatch queue.  It speaks exactly the
wire protocol of the threaded server (:mod:`repro.server`), byte-identical
envelopes included, and adds the controls production traffic needs:

* **admission control** (:class:`AdmissionQueue`) — bounded queues that
  shed overload immediately with structured 429 envelopes and
  ``Retry-After`` hints;
* **priority lanes** — cheap interactive queries dispatch ahead of heavy
  influence-maximization work, with capped heavy concurrency so neither
  lane can starve the other;
* **per-tenant rate limits** (:class:`TenantRateLimiter`) — token buckets
  keyed by bearer token;
* **slow-client timeouts** — every socket read and write is bounded.

Typical use::

    from repro.gateway import GatewayConfig, start_gateway

    gateway = start_gateway(service, config=GatewayConfig(queue_depth=32))
    print(gateway.url)          # http://127.0.0.1:<port>
    gateway.shutdown_gracefully()
"""

from repro.gateway.admission import (
    HEAVY_SERVICES,
    LANE_CHEAP,
    LANE_HEAVY,
    LANES,
    AdmissionQueue,
    lane_for_batch,
    lane_for_service,
    shed_envelope,
)
from repro.gateway.http import GatewayConfig, OctopusAsyncGateway, start_gateway
from repro.gateway.limits import ANONYMOUS_TENANT, TenantRateLimiter

__all__ = [
    "OctopusAsyncGateway",
    "GatewayConfig",
    "start_gateway",
    "AdmissionQueue",
    "TenantRateLimiter",
    "lane_for_service",
    "lane_for_batch",
    "shed_envelope",
    "LANE_CHEAP",
    "LANE_HEAVY",
    "LANES",
    "HEAVY_SERVICES",
    "ANONYMOUS_TENANT",
]
