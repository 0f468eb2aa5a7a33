"""Fixtures of the end-to-end serving test harness.

Everything here runs real sockets: ``running_server`` boots an
:class:`~repro.server.OctopusHTTPServer` on an **ephemeral port** (port 0,
so parallel test runs never collide) with a short ``request_timeout``, and
guarantees a graceful drain on the way out.  Every wait in this package is
bounded — client timeouts, gate timeouts, join timeouts — so a hung socket
fails a test instead of hanging the suite.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.server import OctopusClient, serve_in_background

#: Every wire wait in this package is bounded by this (seconds).
WIRE_TIMEOUT = 15.0


@pytest.fixture(scope="package")
def backend(citation_dataset):
    """One small Octopus backend shared by the whole serving package."""
    return Octopus.from_dataset(
        citation_dataset,
        config=OctopusConfig(
            num_sketches=30,
            num_topic_samples=3,
            topic_sample_rr_sets=150,
            seed=29,
        ),
    )


@contextlib.contextmanager
def _running_server(service, **server_kwargs):
    """Boot a server on an ephemeral port; always drain it afterwards."""
    server_kwargs.setdefault("request_timeout", 5.0)
    server = serve_in_background(service, **server_kwargs)
    try:
        yield server
    finally:
        server.shutdown_gracefully()


@pytest.fixture
def running_server():
    """The server-booting context manager (see :func:`_running_server`)."""
    return _running_server


@contextlib.contextmanager
def _connected_client(server, **client_kwargs):
    """An :class:`OctopusClient` for *server*, closed on exit."""
    client_kwargs.setdefault("timeout", WIRE_TIMEOUT)
    client = OctopusClient(server.url, **client_kwargs)
    try:
        yield client
    finally:
        client.close()


@pytest.fixture
def connected_client():
    """The client-connecting context manager (see :func:`_connected_client`)."""
    return _connected_client
