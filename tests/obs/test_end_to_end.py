"""End-to-end observability: /metrics, request ids, and the determinism pin.

The load-bearing acceptance test lives here: ``deterministic_form()``
bytes are identical with tracing on or off, across the in-process
service, the threaded server, the asyncio gateway, and the cluster
coordinator at 1/2/4 shards.
"""

from __future__ import annotations

import http.client
import json
import logging

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.octopus import Octopus, OctopusConfig
from repro.obs import (
    RequestTrace,
    clean_request_id,
    trace_context,
)
from repro.obs.prometheus import CONTENT_TYPE, validate_exposition
from repro.propagation.native import use_compiled
from repro.service import FindInfluencersRequest, OctopusService
from repro.service.responses import ServiceResponse, deterministic_form

#: Every wire wait in this module is bounded by this (seconds).
WIRE_TIMEOUT = 15.0

REQUEST = FindInfluencersRequest("data mining", k=3)


def _raw_get(server_url: str, path: str):
    """One raw GET → (status, headers, body text)."""
    host_port = server_url.split("//", 1)[1].rstrip("/")
    host, port = host_port.split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=WIRE_TIMEOUT)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read().decode(
            "utf-8"
        )
    finally:
        connection.close()


def _raw_post(server_url: str, path: str, body: str, headers=None):
    """One raw POST → (status, headers, parsed JSON body)."""
    host_port = server_url.split("//", 1)[1].rstrip("/")
    host, port = host_port.split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=WIRE_TIMEOUT)
    try:
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        connection.request("POST", path, body=body.encode("utf-8"), headers=all_headers)
        response = connection.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read().decode("utf-8")),
        )
    finally:
        connection.close()


class TestMetricsEndpointThreaded:
    def test_scrape_is_valid_and_reflects_traffic(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                assert client.execute(REQUEST).ok
            status, headers, body = _raw_get(server.url, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert validate_exposition(body) == [], validate_exposition(body)
        assert "octopus_http_requests_total" in body
        assert 'octopus_service_requests_total{service="influencers"} 1' in body
        assert "# TYPE octopus_service_latency_ms histogram" in body
        assert 'octopus_stat{key="uptime_seconds"}' in body
        compiled = "1" if use_compiled() else "0"
        assert f'octopus_stat{{key="execution.rr_kernel_compiled"}} {compiled}' in body
        assert "best_effort." not in body

    def test_fresh_server_scrapes_cleanly(self, backend, running_server):
        with running_server(OctopusService(backend)) as server:
            status, _headers, body = _raw_get(server.url, "/metrics")
        assert status == 200
        assert validate_exposition(body) == []
        # No traffic yet: the HTTP section renders with zero totals and
        # the per-service section is absent.
        assert "octopus_http_requests_total 0" in body
        assert "octopus_service_requests_total" not in body


class TestMetricsEndpointGateway:
    def test_scrape_is_valid_and_reflects_traffic(
        self, backend, running_gateway, connected_client
    ):
        with running_gateway(OctopusService(backend)) as gateway:
            with connected_client(gateway) as client:
                assert client.execute(REQUEST).ok
            status, headers, body = _raw_get(gateway.url, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert validate_exposition(body) == [], validate_exposition(body)
        assert "octopus_http_requests_total" in body
        assert 'octopus_service_requests_total{service="influencers"} 1' in body


class TestRequestIdPropagation:
    def test_supplied_id_echoed_threaded(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(
                server, request_headers={"X-Request-Id": "my-id-123"}
            ) as client:
                response = client.execute(REQUEST)
        assert response.ok
        assert response.request_id == "my-id-123"
        assert response.timings is None  # debug not requested

    def test_supplied_id_echoed_in_header(self, backend, running_server):
        with running_server(OctopusService(backend)) as server:
            _status, headers, payload = _raw_post(
                server.url,
                "/query",
                REQUEST.to_json(),
                headers={"X-Request-Id": "hdr-echo-1"},
            )
        assert headers["X-Request-Id"] == "hdr-echo-1"
        assert payload["request_id"] == "hdr-echo-1"

    def test_minted_id_when_absent(self, backend, running_server, connected_client):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                response = client.execute(REQUEST)
        assert response.request_id is not None
        assert clean_request_id(response.request_id) == response.request_id

    def test_hostile_id_replaced(self, backend, running_server, connected_client):
        with running_server(OctopusService(backend)) as server:
            with connected_client(
                server, request_headers={"X-Request-Id": "x" * 200}
            ) as client:
                response = client.execute(REQUEST)
        assert response.request_id != "x" * 200
        assert clean_request_id(response.request_id) == response.request_id

    def test_debug_timings_breakdown(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(
                server, request_headers={"X-Debug-Timings": "1"}
            ) as client:
                response = client.execute(REQUEST)
        assert response.ok
        assert response.timings, "debug timings requested but absent"
        assert "backend" in response.timings
        assert "assemble" in response.timings
        assert all(value >= 0.0 for value in response.timings.values())

    def test_error_envelope_carries_id(self, backend, running_server):
        with running_server(OctopusService(backend)) as server:
            _status, headers, payload = _raw_post(
                server.url,
                "/query",
                "this is not json",
                headers={"X-Request-Id": "err-id-1"},
            )
        assert payload["ok"] is False
        assert payload["request_id"] == "err-id-1"
        assert headers["X-Request-Id"] == "err-id-1"

    def test_tracing_off_leaves_envelope_bare(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend), tracing=False) as server:
            with connected_client(
                server, request_headers={"X-Request-Id": "ignored-id"}
            ) as client:
                response = client.execute(REQUEST)
        assert response.ok
        assert response.request_id is None
        assert response.timings is None


class TestRequestIdGateway:
    def test_supplied_id_echoed(self, backend, running_gateway, connected_client):
        with running_gateway(OctopusService(backend)) as gateway:
            with connected_client(
                gateway, request_headers={"X-Request-Id": "gw-id-9"}
            ) as client:
                response = client.execute(REQUEST)
        assert response.ok
        assert response.request_id == "gw-id-9"

    def test_debug_timings_include_queue_wait(
        self, backend, running_gateway, connected_client
    ):
        with running_gateway(OctopusService(backend)) as gateway:
            with connected_client(
                gateway, request_headers={"X-Debug-Timings": "1"}
            ) as client:
                response = client.execute(REQUEST)
        assert response.ok
        assert response.timings
        assert "queue_wait" in response.timings
        assert "backend" in response.timings

    def test_error_envelope_carries_id(self, backend, running_gateway):
        with running_gateway(OctopusService(backend)) as gateway:
            _status, headers, payload = _raw_post(
                gateway.url,
                "/query",
                "not json either",
                headers={"X-Request-Id": "gw-err-2"},
            )
        assert payload["ok"] is False
        assert payload["request_id"] == "gw-err-2"
        assert headers["X-Request-Id"] == "gw-err-2"


class TestSlowQueryLog:
    def test_slow_request_logged_with_request_id(
        self, backend, running_server, connected_client, caplog
    ):
        # A microscopic threshold makes every real query "slow".
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            with running_server(
                OctopusService(backend), slow_query_ms=0.0001
            ) as server:
                with connected_client(
                    server, request_headers={"X-Request-Id": "slow-1"}
                ) as client:
                    assert client.execute(REQUEST).ok
        records = [
            record
            for record in caplog.records
            if record.name == "repro.obs.slowlog"
        ]
        assert records, "slow query never logged"
        record = records[-1]
        assert record.request_id == "slow-1"
        assert record.service == "influencers"
        assert "slow query service=influencers" in record.getMessage()

    def test_quiet_at_default_threshold(
        self, backend, running_server, connected_client, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            with running_server(
                OctopusService(backend), slow_query_ms=60_000.0
            ) as server:
                with connected_client(server) as client:
                    assert client.execute(REQUEST).ok
        assert not [
            record
            for record in caplog.records
            if record.name == "repro.obs.slowlog"
        ]


class TestTracingDeterminism:
    """The acceptance pin: tracing must never change deterministic bytes."""

    @pytest.fixture(scope="class")
    def baseline_form(self, backend):
        """The in-process untraced answer every traced path must match."""
        return deterministic_form(OctopusService(backend).execute(REQUEST))

    def test_in_process_traced_matches(self, backend, baseline_form):
        service = OctopusService(backend)
        with trace_context(RequestTrace("det-1", debug=True)):
            response = service.execute(REQUEST)
        assert response.request_id == "det-1"
        assert response.timings
        assert deterministic_form(response) == baseline_form

    def test_threaded_server_on_off(
        self, backend, running_server, connected_client, baseline_form
    ):
        for tracing in (True, False):
            with running_server(
                OctopusService(backend), tracing=tracing
            ) as server:
                with connected_client(
                    server, request_headers={"X-Debug-Timings": "1"}
                ) as client:
                    response = client.execute(REQUEST)
            assert response.ok
            assert deterministic_form(response) == baseline_form

    def test_gateway_on_off(
        self, backend, running_gateway, connected_client, baseline_form
    ):
        for tracing in (True, False):
            with running_gateway(
                OctopusService(backend), tracing=tracing
            ) as gateway:
                with connected_client(
                    gateway, request_headers={"X-Debug-Timings": "1"}
                ) as client:
                    response = client.execute(REQUEST)
            assert response.ok
            assert deterministic_form(response) == baseline_form

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cluster_traced_and_untraced(
        self, citation_dataset, baseline_form, shards
    ):
        config = OctopusConfig(
            num_sketches=30,
            num_topic_samples=3,
            topic_sample_rr_sets=150,
            seed=29,
        )
        service = OctopusService(Octopus.from_dataset(citation_dataset, config=config))
        cluster = ClusterCoordinator(service, shards=shards, shard_timeout=20.0)
        try:
            untraced = cluster.execute(REQUEST)
            with trace_context(RequestTrace("det-cluster", debug=True)):
                traced = cluster.execute(REQUEST)
        finally:
            cluster.close()
        assert untraced.ok and traced.ok
        assert traced.request_id == "det-cluster"
        assert deterministic_form(untraced) == baseline_form
        assert deterministic_form(traced) == baseline_form

    def test_wire_round_trip_of_stamped_envelope(self):
        response = ServiceResponse.success("stats", {"n": 1.0})
        trace = RequestTrace("rt-99", debug=True)
        trace.record("backend", 0.002)
        with trace_context(trace):
            from repro.obs import stamp_response

            stamped = stamp_response(response)
        parsed = ServiceResponse.from_json(stamped.to_json())
        assert parsed == stamped
        assert deterministic_form(parsed) == deterministic_form(response)
