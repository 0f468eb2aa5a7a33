"""Fixtures of the observability test suite.

Mirrors the serving package's discipline: one small package-scoped
backend, real sockets on ephemeral ports, bounded waits everywhere.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.gateway import GatewayConfig, OctopusAsyncGateway
from repro.server import OctopusClient, serve_in_background

#: Every wire wait in this package is bounded by this (seconds).
WIRE_TIMEOUT = 15.0


@pytest.fixture(scope="package")
def backend(citation_dataset):
    """One small Octopus backend shared by the whole obs package."""
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
    """Boot a threaded server on an ephemeral port; drain it afterwards."""
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


@contextlib.contextmanager
def _running_gateway(service, **gateway_kwargs):
    """Boot an asyncio gateway on an ephemeral port; drain it afterwards."""
    gateway_kwargs.setdefault(
        "config", GatewayConfig(read_timeout=5.0, write_timeout=5.0)
    )
    gateway = OctopusAsyncGateway(service, port=0, **gateway_kwargs)
    gateway.start()
    try:
        yield gateway
    finally:
        gateway.shutdown_gracefully()


@pytest.fixture
def running_gateway():
    """The gateway-booting context manager (see :func:`_running_gateway`)."""
    return _running_gateway
