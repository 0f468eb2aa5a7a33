"""End-to-end tests of the HTTP wire transport: endpoints, error→status
mapping, client behaviour, graceful shutdown and the ``serve`` CLI.

Everything runs against a real server on an ephemeral port (see
``conftest.py``); responses are compared against in-process execution
through :func:`~repro.service.responses.deterministic_form`, the canonical
content the determinism contract promises to reproduce across transports.
"""

import json
import multiprocessing
import threading

import pytest

from repro.cli import main
from repro.server import (
    HTTP_STATUS_BY_ERROR_CODE,
    OctopusClient,
    OctopusHTTPServer,
    OctopusTransportError,
    status_for_response,
)
from repro.service import (
    CompleteRequest,
    FindInfluencersRequest,
    OctopusService,
    ServiceResponse,
    StatsRequest,
    deterministic_form,
)
from repro.utils.validation import ValidationError

WIRE_TIMEOUT = 15.0


class TestEndpoints:
    def test_healthz_reports_liveness(self, backend, running_server, connected_client):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["executor"] == "OctopusService"

    def test_query_matches_in_process_execution(
        self, backend, running_server, connected_client
    ):
        request = FindInfluencersRequest("data mining", k=3)
        expected = OctopusService(backend).execute(request)
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                served = client.execute(request)
        assert served.ok
        assert deterministic_form(served) == deterministic_form(expected)

    def test_query_accepts_every_wire_shape(
        self, backend, running_server, connected_client
    ):
        """Typed requests, dicts and raw JSON strings all serve identically."""
        typed = CompleteRequest(prefix="da", limit=5)
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                shapes = [typed, typed.to_dict(), typed.to_json()]
                forms = {
                    deterministic_form(client.execute(shape)) for shape in shapes
                }
        assert len(forms) == 1

    def test_batch_executes_in_order_and_isolates_failures(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                responses = client.execute_batch(
                    [
                        CompleteRequest(prefix="da"),
                        {"service": "teleport"},
                        FindInfluencersRequest("data mining", k=2),
                    ]
                )
        assert [response.ok for response in responses] == [True, False, True]
        assert responses[1].error.code == "malformed_request"
        assert [response.service for response in responses] == [
            "complete",
            "teleport",
            "influencers",
        ]

    def test_batch_shares_duplicate_results(
        self, backend, running_server, connected_client
    ):
        request = CompleteRequest(prefix="da")
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                responses = client.execute_batch([request] * 4)
        assert all(response.ok for response in responses)
        assert sum(response.cache_hit for response in responses) == 3

    def test_stats_merges_service_cache_and_http_counters(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                client.execute(CompleteRequest(prefix="da"))
                stats = client.stats()
        assert stats["service.complete.requests"] == 1.0
        assert stats["cache.misses"] >= 1.0
        assert stats["http.requests"] == 1.0  # the stats GET itself excluded
        assert stats["http.path.query"] == 1.0
        assert stats["http.responses.2xx"] == 1.0
        assert not any(key.startswith("best_effort.") for key in stats)


class TestErrorMapping:
    def test_mapping_table_is_the_contract(self):
        """Success is 200; every failure code maps through the table."""
        ok = ServiceResponse.success("complete", {})
        assert status_for_response(ok) == 200
        for code, status in HTTP_STATUS_BY_ERROR_CODE.items():
            failure = ServiceResponse.failure("complete", code, "boom")
            assert status_for_response(failure) == status
        unknown = ServiceResponse.failure("complete", "martian_weather", "boom")
        assert status_for_response(unknown) == 500  # conservative default

    @pytest.mark.parametrize(
        "body, expected_status",
        [
            ('{"bad json', 400),  # malformed_request
            ('{"service": "teleport"}', 400),  # unknown service
            ('{"service": "complete", "prefix": "da", "limit": 0}', 400),
            ('{"service": "complete", "prefix": "da", "bogus": 1}', 400),
        ],
    )
    def test_client_mistakes_are_4xx(
        self, backend, running_server, connected_client, body, expected_status
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                status, payload = client._request("POST", "/query", body)
        assert status == expected_status
        assert payload["ok"] is False

    def test_unknown_path_is_404_with_envelope_body(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                status, payload = client._request("GET", "/teapot")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "/query" in payload["error"]["message"]

    def test_wrong_method_is_405(self, backend, running_server, connected_client):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                get_query, _ = client._request("GET", "/query")
                post_stats, _ = client._request("POST", "/stats", "{}")
        assert get_query == 405
        assert post_stats == 405

    def test_missing_content_length_is_400(
        self, backend, running_server, connected_client
    ):
        import http.client

        with running_server(OctopusService(backend)) as server:
            connection = http.client.HTTPConnection(
                client_host(server), client_port(server), timeout=WIRE_TIMEOUT
            )
            try:
                connection.putrequest("POST", "/query", skip_accept_encoding=True)
                connection.endheaders()  # no Content-Length at all
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "malformed_request"

    def test_unread_body_cannot_poison_keepalive(self, backend, running_server):
        """A POST whose body an error path never reads must not leave the
        bytes to be parsed as the next request on the same connection."""
        import http.client

        with running_server(OctopusService(backend)) as server:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(
                host, port, timeout=WIRE_TIMEOUT
            )
            try:
                # 405 path: the body of this POST is never consumed.
                connection.request(
                    "POST",
                    "/healthz",
                    body='{"service": "stats"}',
                    headers={"Content-Type": "application/json"},
                )
                first = connection.getresponse()
                first_body = json.loads(first.read())
                assert first.status == 405
                assert first.getheader("Connection") == "close"
                assert first_body["error"]["code"] == "method_not_allowed"
                # http.client reconnects transparently after the announced
                # close; the follow-up must be served normally — with the
                # old behaviour the leftover body bytes were parsed as the
                # next request line and produced an HTML 400 page here.
                connection.request(
                    "POST",
                    "/query",
                    body=CompleteRequest(prefix="da").to_json(),
                    headers={"Content-Type": "application/json"},
                )
                second = connection.getresponse()
                second_body = json.loads(second.read())
            finally:
                connection.close()
        assert second.status == 200
        assert second_body["ok"] is True

    def test_oversized_body_is_413(self, backend, running_server, connected_client):
        with running_server(
            OctopusService(backend), max_body_bytes=1024
        ) as server:
            with connected_client(server) as client:
                status, payload = client._request(
                    "POST", "/query", "x" * 2048
                )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_unknown_paths_share_one_counter(
        self, backend, running_server, connected_client
    ):
        """A URL scanner cannot grow the per-path stats dict unboundedly."""
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                for path in ("/a", "/b", "/c"):
                    status, _payload = client._request("GET", path)
                    assert status == 404
                stats = client.stats()
        assert stats["http.path.other"] == 3.0
        assert not any(key == "http.path.a" for key in stats)

    def test_internal_error_is_500(self, backend, running_server, connected_client):
        service = OctopusService(backend)
        original = service._handlers["complete"]
        service._handlers["complete"] = _raising_handler
        try:
            with running_server(service) as server:
                with connected_client(server) as client:
                    status, payload = client._request(
                        "POST", "/query", CompleteRequest(prefix="da").to_json()
                    )
        finally:
            service._handlers["complete"] = original
        assert status == 500
        assert payload["error"]["code"] == "internal_error"

    def test_rate_limited_is_429(self, backend, running_server, connected_client):
        # A near-zero refill rate with the implied burst of one: the first
        # request spends the only token and the second must be shed.
        service = OctopusService(backend, rate_limit=0.001)
        with running_server(service) as server:
            with connected_client(server) as client:
                first, _ = client._request(
                    "POST", "/query", StatsRequest().to_json()
                )
                second, payload = client._request(
                    "POST", "/query", StatsRequest().to_json()
                )
        assert first == 200
        assert second == 429
        assert payload["error"]["code"] == "rate_limited"
        assert payload["error"]["details"]["retry_after_seconds"] > 0


class TestClient:
    def test_connection_refused_raises_transport_error(
        self, backend, running_server
    ):
        with running_server(OctopusService(backend)) as server:
            url = server.url
        # server fully shut down: the port is free again
        with OctopusClient(url, timeout=2.0) as client:
            with pytest.raises(OctopusTransportError):
                client.execute(CompleteRequest(prefix="da"))

    def test_stale_keepalive_connection_is_retried(
        self, backend, running_server
    ):
        import time

        with running_server(
            OctopusService(backend), request_timeout=0.3
        ) as server:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                assert client.execute(CompleteRequest(prefix="da")).ok
                time.sleep(0.8)  # server times the idle connection out
                assert client.execute(CompleteRequest(prefix="da")).ok

    def test_closed_client_refuses_requests(self, backend, running_server):
        with running_server(OctopusService(backend)) as server:
            client = OctopusClient(server.url)
            client.close()
            with pytest.raises(OctopusTransportError):
                client.execute(CompleteRequest(prefix="da"))

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            OctopusClient("ftp://example.org")
        with pytest.raises(ValueError):
            OctopusClient("http://")
        with pytest.raises(ValueError):
            OctopusClient("http://example.org", retries=-1)

    def test_https_urls_are_accepted(self):
        client = OctopusClient("https://example.org", verify=False)
        assert client.scheme == "https"
        assert client.port == 443
        client.close()

    def test_bad_batch_entry_rejected_client_side(
        self, backend, running_server, connected_client
    ):
        with running_server(OctopusService(backend)) as server:
            with connected_client(server) as client:
                with pytest.raises(ValidationError):
                    client.execute_batch(['{"bad json'])


class TestGracefulShutdown:
    @pytest.fixture(autouse=True)
    def _bind_running_server(self, running_server):
        self._booted = running_server

    def test_inflight_request_drains_into_final_stats(self, backend):
        """Shutdown waits for in-flight requests and counts them."""
        service = OctopusService(backend)
        entered = threading.Event()
        release = threading.Event()
        original = service._handlers["complete"]

        def slow(request):
            entered.set()
            assert release.wait(timeout=WIRE_TIMEOUT)
            return original(request)

        service._handlers["complete"] = slow
        results = []
        try:
            with self._booted(service) as server:
                client = OctopusClient(server.url, timeout=WIRE_TIMEOUT)

                def request_thread():
                    results.append(client.execute(CompleteRequest(prefix="da")))

                poster = threading.Thread(target=request_thread)
                poster.start()
                assert entered.wait(timeout=WIRE_TIMEOUT)
                # Drain concurrently with the in-flight request: release the
                # handler only once the drain has begun waiting on it.
                releaser = threading.Timer(0.2, release.set)
                releaser.start()
                final = server.shutdown_gracefully()
                poster.join(timeout=WIRE_TIMEOUT)
                client.close()
        finally:
            service._handlers["complete"] = original
            release.set()
        assert results and results[0].ok  # the response was fully served
        assert final["service.complete.requests"] == 1.0
        assert final["http.responses.2xx"] == 1.0

    def test_shutdown_is_idempotent_and_closes_executor(self, backend):
        from repro.cluster import ClusterCoordinator

        executor = ClusterCoordinator(
            OctopusService(backend), shards=2, fan_out=False
        )
        with self._booted(executor) as server:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                assert client.execute(CompleteRequest(prefix="da")).ok
            first = server.shutdown_gracefully()
            second = server.shutdown_gracefully()
        assert first is second  # the final snapshot is taken exactly once
        assert executor.closed

    def test_draining_health_status(self, backend, running_server):
        with running_server(OctopusService(backend)) as server:
            assert server.health()["status"] == "ok"
            final = server.shutdown_gracefully()
        assert server.health()["status"] == "draining"
        assert server.final_stats is final


class TestServeCLI:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("serve-cli") / "dataset"
        code = main(
            [
                "generate",
                "--kind",
                "citation",
                "--out",
                str(directory),
                "--size",
                "120",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        return str(directory)

    def test_serve_boots_and_drains_on_interrupt(
        self, dataset_dir, monkeypatch, capsys
    ):
        """The serve command's whole lifecycle, with the accept loop elided."""
        monkeypatch.setattr(
            OctopusHTTPServer,
            "serve_forever",
            lambda self, poll_interval=0.5: (_ for _ in ()).throw(
                KeyboardInterrupt()
            ),
        )
        code = main(["serve", dataset_dir, "--fast", "--port", "0"])
        output = capsys.readouterr().out
        assert code == 0
        assert "serving" in output
        assert "POST /query" in output
        assert "http.requests" in output  # the final metrics report

    def test_serve_concurrent_executor_closes_pool(
        self, dataset_dir, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            OctopusHTTPServer,
            "serve_forever",
            lambda self, poll_interval=0.5: (_ for _ in ()).throw(
                KeyboardInterrupt()
            ),
        )
        code = main(
            [
                "serve",
                dataset_dir,
                "--fast",
                "--port",
                "0",
                "--executor",
                "processes",
                "--workers",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "executor=processes" in output
        assert "executor.workers" in output
        assert multiprocessing.active_children() == []  # replicas reaped

    def test_query_without_dataset_or_url_errors(self, capsys):
        code = main(["query", '{"service": "stats"}'])
        assert code == 2
        assert "dataset directory or --url" in capsys.readouterr().err

    def test_query_url_transport_error_is_reported(self, capsys):
        # An unroutable port: nothing listens on port 1 on loopback.
        code = main(
            [
                "query",
                "--url",
                "http://127.0.0.1:1",
                "--timeout",
                "2",
                '{"service": "stats"}',
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _raising_handler(request):
    raise RuntimeError("index on fire")


def client_host(server) -> str:
    return server.server_address[0]


def client_port(server) -> int:
    return server.server_address[1]
