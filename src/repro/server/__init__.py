"""HTTP wire transport for the OCTOPUS service layer.

The JSON request/response envelopes of :mod:`repro.service` were designed
to be transport-ready; this package puts them on a socket.  A threaded
stdlib server (:class:`~repro.server.http.OctopusHTTPServer`) exposes
``POST /query``, ``POST /batch``, ``GET /stats`` and ``GET /healthz`` over
any service executor — a plain :class:`~repro.service.OctopusService` or a
:class:`~repro.cluster.ClusterCoordinator` over forked replicas — and a
typed client
stub (:class:`~repro.server.client.OctopusClient`) mirrors the executor
surface so callers cannot tell local from remote::

    from repro import Octopus, OctopusService
    from repro.server import OctopusClient, serve_in_background

    server = serve_in_background(OctopusService(backend))  # ephemeral port
    with OctopusClient(server.url) as client:
        response = client.execute(FindInfluencersRequest("data mining"))
        assert response.ok
    final_stats = server.shutdown_gracefully()  # drains in-flight requests

The CLI front end is ``octopus serve`` (boot a server over a dataset) and
``octopus query --url`` (replay requests against one).
"""

from repro.server.client import (
    OctopusClient,
    OctopusRateLimitedError,
    OctopusTransportError,
)
from repro.server.http import (
    HTTP_STATUS_BY_ERROR_CODE,
    OctopusHTTPServer,
    serve_in_background,
    status_for_response,
)

__all__ = [
    "OctopusHTTPServer",
    "OctopusClient",
    "OctopusTransportError",
    "OctopusRateLimitedError",
    "HTTP_STATUS_BY_ERROR_CODE",
    "serve_in_background",
    "status_for_response",
]
