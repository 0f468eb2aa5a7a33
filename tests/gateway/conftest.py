"""Fixtures of the asyncio-gateway test harness.

Mirrors the serving package's discipline — real sockets, ephemeral ports,
bounded waits everywhere — and adds two gateway-specific tools:

* :class:`StubService`, a service executor whose latency is *controlled
  by the test* (an event gate per lane class), so overload and
  priority-lane behaviour can be produced deterministically instead of
  hoping a real backend is slow enough;
* a session-scoped self-signed TLS certificate (generated with
  ``cryptography``) for the HTTPS tests on both front ends.
"""

from __future__ import annotations

import contextlib
import datetime
import ipaddress
import json
import threading

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.gateway import GatewayConfig, OctopusAsyncGateway
from repro.service import ServiceResponse

#: Every wire wait in this package is bounded by this (seconds).
WIRE_TIMEOUT = 15.0


@pytest.fixture(scope="package")
def backend(citation_dataset):
    """One small Octopus backend shared by the whole gateway package."""
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
def _running_gateway(service, **gateway_kwargs):
    """Boot a gateway on an ephemeral port; always drain it afterwards."""
    gateway_kwargs.setdefault(
        "config",
        GatewayConfig(read_timeout=5.0, write_timeout=5.0),
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


class StubService:
    """A service executor whose compute time the test controls.

    ``execute`` answers instantly unless the request's service is listed
    in ``gated_services``; gated requests block on :attr:`gate` (released
    by the test) with a bounded wait, so a test can saturate the heavy
    lane at will and release it deterministically.  Payload echoes the
    request so responses remain assertable.  Thread-safe: the gateway's
    compute pool calls from several threads.
    """

    def __init__(self, gated_services=("influencers", "targeted")):
        self.gate = threading.Event()
        self.gated_services = frozenset(gated_services)
        self.started = threading.Semaphore(0)  # released as gated work begins
        self._lock = threading.Lock()
        self.executed = []

    def _service_of(self, request) -> str:
        if isinstance(request, dict):
            return str(request.get("service", "unknown"))
        if isinstance(request, str):
            try:
                return str(json.loads(request).get("service", "unknown"))
            except (json.JSONDecodeError, AttributeError):
                return "unknown"
        return str(getattr(request, "service", "unknown"))

    def execute(self, request) -> ServiceResponse:
        """Answer one request, blocking on the gate when it is gated."""
        service = self._service_of(request)
        with self._lock:
            self.executed.append(service)
        if service in self.gated_services:
            self.started.release()
            assert self.gate.wait(timeout=WIRE_TIMEOUT), "test gate never opened"
        return ServiceResponse.success(service, {"echo": service})

    def execute_batch(self, requests):
        """Per-slot :meth:`execute`."""
        return [self.execute(request) for request in requests]

    def stats(self):
        """Executor-side counters (requests seen)."""
        with self._lock:
            return {"stub.requests": float(len(self.executed))}


@pytest.fixture
def stub_service():
    """A fresh :class:`StubService` with the gate initially closed."""
    return StubService()


@pytest.fixture(scope="session")
def tls_material(tmp_path_factory):
    """Self-signed localhost cert + key PEM paths (session-scoped)."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import rsa
    from cryptography.x509.oid import NameOID

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "localhost")])
    now = datetime.datetime.now(datetime.timezone.utc)
    certificate = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName(
                [
                    x509.DNSName("localhost"),
                    x509.IPAddress(ipaddress.ip_address("127.0.0.1")),
                ]
            ),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    directory = tmp_path_factory.mktemp("tls")
    cert_path = directory / "cert.pem"
    key_path = directory / "key.pem"
    cert_path.write_bytes(
        certificate.public_bytes(serialization.Encoding.PEM)
    )
    key_path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.TraditionalOpenSSL,
            serialization.NoEncryption(),
        )
    )
    return str(cert_path), str(key_path)


@pytest.fixture
def server_ssl_context(tls_material):
    """A fresh server-side ``SSLContext`` loaded with the test cert."""
    import ssl

    cert_path, key_path = tls_material
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    return context
